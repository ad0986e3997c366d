"""Compare this checkout with another one in alternated benchmark pairs.

Usage (from the repository root):

    python3 tools/bench_pairs.py OTHER --workload inhom-analysis [--pairs 10]
        [--seed 500] [--seconds 20]
    python3 tools/bench_pairs.py OTHER --workload inhom-analysis --setup [--pairs 12]
    python3 tools/bench_pairs.py OTHER --workload cov-grid50 --trace [--pairs 10]

OTHER is the root of a second checkout, for example the parent commit
unpacked with ``git archive``. Pair ``i`` runs
``python3 perfbench/run.py --workload W --seed S+i --trace 0`` once in each
checkout, on the same fresh seed; this checkout goes first in even pairs and
second in odd ones, so drift in the host's speed does not favour one side.
The tool prints each run's end-to-end metrics as it finishes, then, per
metric and side, the median, the quartiles and in how many pairs this side
read lower than the other. Benchmark runs also report their raw medians,
``wall_s`` and ``reference_s`` (the two sides of the ``wall_norm`` ratio, read
from run.py's ``... s, median of ...`` lines), summarized the same way: an
allocation change can move the reference work as well as the workload. Last
comes one verdict per end-to-end metric of ``BENCHMARK.json``, this checkout
against OTHER, by the metric's ``better`` direction and relative ``bound``
(see :func:`verdict`); the raw medians are not such metrics and get none. A
failed call in any run makes the exit status 1.

``--setup`` times set-up only: pair ``i`` runs
``python3 perfbench/setup_probe.py W S+i DIR`` (a fresh interpreter importing
inhomk and building the workload's inputs, in a new temporary DIR) in each
checkout, in the same alternating order, as many times as run.py's
``SETUP_PROBES``, and summarizes the median of those probes as ``setup_s``,
the same statistic that a benchmark run reports. That is the import-bound
metric, whose spread is wide, so it gets its own, cheaper pairs.

``--trace`` runs each side with ``--trace 1`` instead, and summarizes every
per-layer metric that the traced runs report (self seconds and counts per
layer, as in BENCHMARK.json's ``per_layer``) the same way, median, quartiles
and pairs lower, so a change's saving can be placed in a layer. It prints no
verdict: per-layer metrics carry no bound. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("this", "other")
RAW_MEDIAN = re.compile(r"^(wall_s|reference_s) = (\S+) s, median of ", re.MULTILINE)
# Set-up probes per setup_s sample, as perfbench/run.py takes them.
SETUP_PROBES = int(re.search(r"^SETUP_PROBES = (\d+)$", (ROOT / "perfbench" / "run.py").read_text(),
                             re.MULTILINE)[1])


def parse_result(stdout: str) -> dict:
    """The JSON result on the last line of one run's output, with the raw medians
    ``wall_s`` and ``reference_s`` that the run printed added to its metrics."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or "metrics" not in result:
        raise ValueError(f"no JSON result on the last line: {lines[-1:]!r}")
    for name, value in RAW_MEDIAN.findall(stdout):
        result["metrics"][name] = {"value": float(value), "unit": "s"}
    return result


def parse_setup(outputs: list[str]) -> dict:
    """The median of set-up probes' seconds (each output's last line) as a
    result with metric ``setup_s``."""
    seconds = []
    for stdout in outputs:
        lines = stdout.strip().splitlines()
        try:
            seconds.append(float(lines[-1]))
        except (IndexError, ValueError):
            raise ValueError(f"no seconds on the last line: {lines[-1:]!r}") from None
    return {"failed": 0, "metrics": {"setup_s": {"value": statistics.median(seconds), "unit": "s"}}}


def _python_output(root: Path, args: list[str]) -> str:
    proc = subprocess.run([sys.executable, *args], cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: exited with {proc.returncode}: {proc.stderr.strip()}")
    return proc.stdout


def run_setup_probe(root: Path, workload: str, seed: int, _seconds: float) -> list[str]:
    # SETUP_PROBES probes in one directory, as run.py's setup_s; a probe times
    # one set-up, so the run length does not apply.
    probe = ["perfbench/setup_probe.py", workload, str(seed)]
    with tempfile.TemporaryDirectory() as workdir:
        return [_python_output(root, [*probe, workdir]) for _ in range(SETUP_PROBES)]


def run_benchmark(root: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> str:
    return _python_output(root, ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", str(trace)])


def run_traced(root: Path, workload: str, seed: int, seconds: float) -> str:
    return run_benchmark(root, workload, seed, seconds, trace=1)


def run_pairs(other: Path, workload: str, pairs: int, seed: int, seconds: float,
              run, out=print, parse=parse_result) -> list[dict]:
    """Per pair: its seed and each side's result, the order flipping each pair.

    ``run`` returns one side's output in a pair and ``parse`` turns it into a result.
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
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=500)
    parser.add_argument("--seconds", type=float, default=20.0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup", action="store_true",
                      help="run set-up probes instead of benchmark runs")
    mode.add_argument("--trace", action="store_true",
                      help="run traced benchmarks and summarize their per-layer metrics")
    args = parser.parse_args(argv)
    if args.pairs < 1 or not (args.other / "perfbench" / "run.py").is_file():
        parser.error("need at least one pair and a checkout with perfbench/run.py")
    if args.setup:
        run, parse = run_setup_probe, parse_setup
    else:
        run, parse = (run_traced if args.trace else run_benchmark), parse_result
    try:
        rows = run_pairs(args.other.resolve(), args.workload, args.pairs, args.seed,
                         args.seconds, run, parse=parse)
    except (RuntimeError, ValueError) as err:
        print(f"bench_pairs: {err}", file=sys.stderr)
        return 1
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    print("\n".join(summarize(rows) + ([] if args.trace else verdicts(rows, end_to_end))))
    return 0 if all(row[side]["failed"] == 0 for row in rows for side in SIDES) else 1


if __name__ == "__main__":
    sys.exit(main())
