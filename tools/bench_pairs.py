"""Compare this checkout with another one in alternated benchmark pairs.

Usage (from the repository root):

    python3 tools/bench_pairs.py OTHER --workload inhom-analysis [--pairs 8]
        [--seed 500] [--seconds 20]
    python3 tools/bench_pairs.py OTHER --workload inhom-analysis --setup [--pairs 12]

OTHER is the root of a second checkout, for example the parent commit
unpacked with ``git archive``. Pair ``i`` runs
``python3 perfbench/run.py --workload W --seed S+i --trace 0`` once in each
checkout, on the same fresh seed; this checkout goes first in even pairs and
second in odd ones, so drift in the host's speed does not favour one side.
The tool prints each run's end-to-end metrics as it finishes, then, per
metric and side, the median, the quartiles and in how many pairs this side
read lower than the other. Last comes one verdict per end-to-end metric of
``BENCHMARK.json``, this checkout against OTHER, by the metric's ``better``
direction and relative ``bound`` (see :func:`verdict`). A failed call in any
run makes the exit status 1.

``--setup`` times set-up only: pair ``i`` runs
``python3 perfbench/setup_probe.py W S+i DIR`` (a fresh interpreter importing
inhomk and building the workload's inputs, in a new temporary DIR) once in each
checkout, in the same alternating order, and summarizes ``setup_s`` the same
way. That is the import-bound metric, whose single-run spread is wide, so it
gets its own, cheaper pairs. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("this", "other")


def parse_result(stdout: str) -> dict:
    """The JSON result on the last line of one run's output."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or "metrics" not in result:
        raise ValueError(f"no JSON result on the last line: {lines[-1:]!r}")
    return result


def parse_setup(stdout: str) -> dict:
    """One set-up probe's seconds (its last line) as a result with metric ``setup_s``."""
    lines = stdout.strip().splitlines()
    try:
        seconds = float(lines[-1]) if lines else None
    except ValueError:
        seconds = None
    if seconds is None:
        raise ValueError(f"no seconds on the last line: {lines[-1:]!r}")
    return {"failed": 0, "metrics": {"setup_s": {"value": seconds, "unit": "s"}}}


def _python_output(root: Path, args: list[str]) -> str:
    proc = subprocess.run([sys.executable, *args], cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: exited with {proc.returncode}: {proc.stderr.strip()}")
    return proc.stdout


def run_setup_probe(root: Path, workload: str, seed: int, _seconds: float) -> str:
    # A probe times one set-up, so the run length does not apply.
    with tempfile.TemporaryDirectory() as workdir:
        return _python_output(root, ["perfbench/setup_probe.py", workload, str(seed), workdir])


def run_benchmark(root: Path, workload: str, seed: int, seconds: float) -> str:
    return _python_output(root, ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", "0"])


def run_pairs(other: Path, workload: str, pairs: int, seed: int, seconds: float,
              run, out=print, parse=parse_result) -> list[dict]:
    """Per pair: its seed and each side's result, the order flipping each pair.

    ``run`` returns one run's output and ``parse`` turns it into a result.
    """
    roots = {"this": ROOT, "other": other}
    rows = []
    for i in range(pairs):
        row = {"seed": seed + i}
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            row[side] = parse(run(roots[side], workload, seed + i, seconds))
            metrics = " ".join(f"{name}={m['value']:.6g}"
                               for name, m in row[side]["metrics"].items())
            failed = row[side]["failed"]
            out(f"pair {i + 1} seed {seed + i} {side}: {metrics} failed={failed}")
        rows.append(row)
    return rows


def quartiles(vals: list[float]) -> tuple[float, float]:
    """First and third quartiles; one value is both."""
    q1, _, q3 = statistics.quantiles(vals if len(vals) > 1 else vals * 2, n=4, method="inclusive")
    return q1, q3


def summarize(rows: list[dict]) -> list[str]:
    """Per metric and side: median, quartiles, and pairs in which the side read lower."""
    lines = []
    for name in rows[0]["this"]["metrics"]:
        values = {side: [row[side]["metrics"][name]["value"] for row in rows] for side in SIDES}
        for side, rival in (SIDES, SIDES[::-1]):
            vals = values[side]
            q1, q3 = quartiles(vals)
            lower = sum(a < b for a, b in zip(vals, values[rival]))
            lines.append(f"{name} {side}: median {statistics.median(vals):.6g} "
                         f"quartiles [{q1:.6g}, {q3:.6g}] lower in {lower}/{len(rows)} pairs")
    return lines


def verdict(this: list[float], other: list[float], better: str, bound: float) -> str:
    """``gain``, ``regressed``, ``unresolved`` or ``no regression`` for paired runs.

    With ``better`` "lower" (or "higher", which mirrors every comparison):

    * ``regressed``: this median is worse than OTHER's by more than
      ``bound`` times OTHER's median;
    * ``gain``: this side is better in at least 9/10 of the pairs, ties
      counting for neither, and the medians differ by more than OTHER's
      interquartile range;
    * ``unresolved``: OTHER's interquartile range exceeds ``bound`` times its
      median, unless every run here is better than every run of OTHER;
    * ``no regression``: none of these, checked in this order.
    """
    sign = 1.0 if better == "lower" else -1.0
    this, other = [sign * v for v in this], [sign * v for v in other]
    med_this, med_other = statistics.median(this), statistics.median(other)
    q1, q3 = quartiles(other)
    scale = bound * abs(med_other)
    wins = sum(a < b for a, b in zip(this, other))
    if med_this - med_other > scale:
        return "regressed"
    if 10 * wins >= 9 * len(this) and med_other - med_this > q3 - q1:
        return "gain"
    if q3 - q1 > scale and not max(this) < min(other):
        return "unresolved"
    return "no regression"


def verdicts(rows: list[dict], end_to_end: list[dict]) -> list[str]:
    """One line per end-to-end metric that the runs report: its verdict and the numbers behind it."""
    lines = []
    for metric in end_to_end:
        name = metric["name"]
        if name not in rows[0]["this"]["metrics"]:
            continue
        vals = {side: [row[side]["metrics"][name]["value"] for row in rows] for side in SIDES}
        word = verdict(vals["this"], vals["other"], metric["better"], metric["bound"])
        lines.append(f"verdict {name}: {word} (median {statistics.median(vals['other']):.6g} "
                     f"-> {statistics.median(vals['this']):.6g}, {metric['better']} is better, "
                     f"bound {metric['bound']:g})")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=8)
    parser.add_argument("--seed", type=int, default=500)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--setup", action="store_true",
                        help="run set-up probes instead of benchmark runs")
    args = parser.parse_args(argv)
    if args.pairs < 1 or not (args.other / "perfbench" / "run.py").is_file():
        parser.error("need at least one pair and a checkout with perfbench/run.py")
    run, parse = (run_setup_probe, parse_setup) if args.setup else (run_benchmark, parse_result)
    try:
        rows = run_pairs(args.other.resolve(), args.workload, args.pairs, args.seed,
                         args.seconds, run, parse=parse)
    except (RuntimeError, ValueError) as err:
        print(f"bench_pairs: {err}", file=sys.stderr)
        return 1
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    print("\n".join(summarize(rows) + verdicts(rows, end_to_end)))
    return 0 if all(row[side]["failed"] == 0 for row in rows for side in SIDES) else 1


if __name__ == "__main__":
    sys.exit(main())
