"""inhomk benchmark: one workload per process, checked outputs, metrics as JSON.

Usage (from the repository root):

    python3 perfbench/run.py --workload poisson-study --seed 0 --seconds 20 --trace 0

Workloads: poisson-study, matern-study, cov-grid50, inhom-analysis (see
perfbench/README.md). With ``--trace 0`` the run reports the end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` the per-layer metrics, from
spans recorded at inhomk's module boundaries (perfbench/spans.py) and written
to .bench_out/. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

The program is imported from ``src/`` next to this directory; without it the
run exits with status 2 and prints no result.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

# BLAS threads are held at one, the same for every run and every commit;
# set before numpy is imported anywhere in this process or its children.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("poisson-study", "matern-study", "cov-grid50", "inhom-analysis")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_threads_in_use():
    """Threads numpy's bundled OpenBLAS reports, or None where it cannot be asked."""
    import ctypes

    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            query = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        query.restype = ctypes.c_int
        return query()
    return None


def environment(load_at_start) -> dict:
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(load_at_start),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_in_use": _blas_threads_in_use(),
        "git_sha": _git_sha(),
        "workers": 1,
    }


class Calls:
    """Runs workload calls, times them and counts the failed ones.

    A call fails when it raises or when its output check reports a problem.
    """

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def run(self, inp, tracer=None):
        """Seconds for one call and its checked output (None when it failed)."""
        workload = self.workload
        call = workload.call if tracer is None else tracer.wrap(workload.root, workload.call)
        self.attempted += 1
        with tracer if tracer is not None else contextlib.nullcontext():
            start = perf_counter()
            try:
                result = call(inp)
                error = None
            except Exception:  # a failed call is counted, and the run goes on
                error = traceback.format_exc()
            seconds = perf_counter() - start
        if error is None:
            try:
                out = workload.output(inp, result)
                problems = workload.check(inp, out)
            except Exception:
                out, problems = None, [traceback.format_exc()]
        else:
            out, problems = None, [error]
        if problems:
            self.fail(f"{workload.name} input {inp!r}: " + "; ".join(problems))
            return seconds, None
        return seconds, out

    def fail(self, message: str) -> None:
        self.failed += 1
        sys.stderr.write(f"FAILED {message}\n")


def setup_seconds(name: str, seed: int, workdir: Path) -> list[float]:
    probe = [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), str(workdir)]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            probe, capture_output=True, text=True, check=True, timeout=PROBE_TIMEOUT_S
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def reference_work() -> int:
    """A fixed computation, independent of inhomk, timed next to every call.

    Its three parts mirror what the workloads spend their time on: the
    interpreter, numpy on arrays of a thousand elements, and numpy sorting on
    large arrays. This code must not change, or ``wall_norm`` of different
    commits stops being comparable.
    """
    total = 0
    for i in range(700_000):
        total += i * i
    idx = np.arange(1, 1311, dtype=np.int64)
    for base in range(2, 302):
        out = np.zeros(len(idx))
        denom = 1.0
        work = idx * base
        while work.any():
            denom *= 3.0
            out += (work % 3) / denom
            work //= 3
    values = np.random.default_rng(0).random(200_000)
    for _ in range(4):
        np.unique(np.floor(values * 1000.0), return_counts=True)
        total += int(np.cumsum(np.sort(values))[-1])
    return total


def untraced_run(calls: Calls, seconds: float) -> tuple[list[float], list[float]]:
    """Call walls and reference walls, one of each per timed call."""
    walls, refs = [], []
    k = 1
    start = perf_counter()
    while not walls or perf_counter() - start < seconds:
        ref_start = perf_counter()
        reference_work()
        refs.append(perf_counter() - ref_start)
        walls.append(calls.run(calls.workload.input(k))[0])
        k += 1
    return walls, refs


def report(metrics: dict, spec: list, calls: Calls) -> dict:
    wanted = {m["name"]: m["unit"] for m in spec}
    if set(metrics) != set(wanted):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    for name, unit in wanted.items():
        print(f"{name} = {metrics[name]!r} {unit}")
    return {
        "correct": calls.failed == 0,
        "attempted": calls.attempted,
        "failed": calls.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in wanted.items()},
    }


def main(argv=None) -> int:
    load_at_start = os.getloadavg()
    args = parse_args(argv)
    if not (SRC / "inhomk" / "__init__.py").is_file():
        sys.stderr.write(f"error: no inhomk sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    import inhomk

    if Path(inhomk.__file__).resolve().parent != SRC / "inhomk":
        sys.stderr.write(f"error: imported inhomk from {inhomk.__file__}, not {SRC}\n")
        return 2
    import spans
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = environment(load_at_start)
    print("environment " + json.dumps(env))
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as tmp:
        workdir = Path(tmp)
        setup = [] if args.trace else setup_seconds(args.workload, args.seed, workdir)
        workload = workloads.build(args.workload, args.seed, workdir, workloads.load_reference())
        calls = Calls(workload)
        calls.run(workload.input(0))  # warm-up, untimed
        if args.trace:
            plain, traced, tracers = spans.traced_run(calls, args.seconds)
            metrics = spans.layer_metrics(plain, traced, tracers)
            path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            spans.write_spans(path, args.workload, args.seed, traced, tracers)
            print(f"{len(tracers)} traced calls, spans in {path.relative_to(ROOT)}")
            result = report(metrics, spec["per_layer"], calls)
        else:
            walls, refs = untraced_run(calls, args.seconds)
            metrics = {
                "wall_norm": statistics.median(walls) / statistics.median(refs),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            print(f"wall_s = {statistics.median(walls)!r} s, median of {len(walls)} timed calls "
                  f"{[round(w, 3) for w in walls]}")
            print(f"reference_s = {statistics.median(refs)!r} s, median of {len(refs)}")
            print(f"setup_s: median of {len(setup)} {[round(s, 3) for s in setup]}")
            result = report(metrics, spec["end_to_end"], calls)
    print(f"ops_failed_ratio = {calls.failed}/{calls.attempted}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
