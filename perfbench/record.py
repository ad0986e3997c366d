"""Record the reference outputs that the benchmark checks every call against.

Usage (from the repository root): python3 perfbench/record.py

Runs every pool seed of the pooled workloads with the program in ``src/`` and
writes perfbench/reference.json. The recorded values define "the same seeded
result"; re-record only for a change meant to alter seeded results, and say
so where the change is described.
"""

import json
import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

import workloads  # noqa: E402
from run import _git_sha  # noqa: E402


def main() -> None:
    reference = {"recorded_at": _git_sha()}
    for name in ("poisson-study", "matern-study", "inhom-analysis"):
        workload = workloads.build(name, 0, HERE, reference=None)
        entries = {}
        for pool_seed in range(workloads.POOL):
            inp = workload.build(pool_seed)
            out = workload.output(inp, workload.call(inp))
            entries[str(pool_seed)] = workload.summary(out)
            print(name, pool_seed, flush=True)
        reference[name] = entries
    workloads.REFERENCE.write_text(_dump(reference))


def _dump(reference: dict) -> str:
    """JSON with one recorded entry per line."""
    parts = []
    for key, value in reference.items():
        if isinstance(value, dict):
            entries = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in value.items())
            parts.append(f" {json.dumps(key)}: {{\n{entries}\n }}")
        else:
            parts.append(f" {json.dumps(key)}: {json.dumps(value)}")
    return "{\n" + ",\n".join(parts) + "\n}\n"


if __name__ == "__main__":
    main()
