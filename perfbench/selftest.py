"""Short pass over every workload that checks the benchmark itself.

Usage (from the repository root): python3 perfbench/selftest.py [--seconds 2]

For each workload it runs the untraced benchmark at seeds 0 and 1 and the
traced benchmark twice at seed 0, and checks that

* every run is correct, with no failed call (the traced runs compare each
  traced output with an untraced call on the same input);
* every metric of BENCHMARK.json is reported, with its unit, and no other;
* the count metrics repeat exactly across the two traced runs.

It also runs the benchmark in a copy holding only BENCHMARK.json and
perfbench/, where it must exit non-zero without printing a result.
Exits 1 if any check fails.
"""

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import OUT, WORKLOADS  # noqa: E402

RUN_TIMEOUT_S = 600


def run(root: Path, workload: str, seed: int, seconds: float, trace: int):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, result, done.stderr


def check_result(label, code, result, stderr, spec) -> list[str]:
    if code != 0 or result is None:
        return [f"{label}: exit {code}, no result\n{stderr}"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: {result['failed']} of {result['attempted']} calls failed\n{stderr}")
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        problems.append(f"{label}: metrics/units {got} != {want}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    problems = []
    for workload in WORKLOADS:
        for seed in (0, 1):
            label = f"{workload} seed {seed} untraced"
            problems += check_result(label, *run(ROOT, workload, seed, args.seconds, 0),
                                     spec["end_to_end"])
        traced = []
        for attempt in (1, 2):
            label = f"{workload} traced run {attempt}"
            code, result, stderr = run(ROOT, workload, 0, args.seconds, 1)
            problems += check_result(label, code, result, stderr, spec["per_layer"])
            if result is not None:
                traced.append({name: result["metrics"][name]["value"] for name in counts
                               if name in result["metrics"]})
        if len(traced) == 2 and traced[0] != traced[1]:
            problems.append(f"{workload}: counts differ across traced runs {traced}")
        print(f"{workload}: {len(problems)} problem(s) so far", flush=True)

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="bare-") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, result, _ = run(Path(bare), WORKLOADS[0], 0, args.seconds, 0)
        if code == 0 or result is not None:
            problems.append(f"without src/ the benchmark exited {code} with result {result}")

    for problem in problems:
        print("PROBLEM", problem)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
