"""Run every benchmark workload once and keep the results as BENCH_<LABEL>.json.

Usage (from the repository root):

    python3 tools/bench_collect.py LABEL

For each workload named in BENCHMARK.json this runs
``python3 perfbench/run.py --workload W --seed 0 --trace 0`` and keeps the
run's ``environment`` line and its last line, the JSON result. Every file of
the trajectory uses the same seed, so all of them measure the same inputs.
The output also records the git sha of HEAD; the tool refuses to run when
tracked files differ from HEAD, so that sha names the code each number
measured. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV_PREFIX = "environment "
SEED = 0


def parse_run(stdout: str) -> dict:
    """The environment block and the result (last line) of one run's output."""
    lines = stdout.strip().splitlines()
    envs = [line[len(ENV_PREFIX):] for line in lines if line.startswith(ENV_PREFIX)]
    if len(envs) != 1:
        raise ValueError(f"expected one environment line, found {len(envs)}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as err:
        raise ValueError(f"last line is not a JSON result: {lines[-1]!r}") from err
    if not isinstance(result, dict) or "metrics" not in result:
        raise ValueError("last line has no metrics")
    return {"environment": json.loads(envs[0]), "result": result}


def run_workload(workload: str) -> str:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} exited with {proc.returncode}: {proc.stderr.strip()}")
    return proc.stdout


def _git(*args: str) -> str | None:
    """Output of a git command in the repository, or None outside a git checkout."""
    try:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def collect(label: str, run=run_workload) -> dict:
    """One parsed run per workload, with the commit they measured."""
    sha = _git("rev-parse", "HEAD")
    if sha is None or _git("status", "--porcelain", "--untracked-files=no") != "":
        raise RuntimeError("commit first: tracked files must match HEAD in a git checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "label": label,
        "git_sha": sha,
        "seed": SEED,
        "workloads": {w["name"]: parse_run(run(w["name"])) for w in spec["workloads"]},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label")
    args = parser.parse_args(argv)
    path = ROOT / f"BENCH_{args.label}.json"
    try:
        data = collect(args.label)
    except RuntimeError as err:
        print(f"bench_collect: {err}", file=sys.stderr)
        return 1
    path.write_text(json.dumps(data, indent=1) + "\n")
    print(f"-> {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
