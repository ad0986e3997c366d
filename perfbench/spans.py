"""Spans at inhomk's module boundaries, recorded from outside the package.

While a :class:`Tracer` is active it replaces each public function listed in
:func:`_patch_table` at the name its caller imported (``inhomk.study.k_hat``,
``inhomk.kstat.close_pairs``, ...) with a wrapper that records a span: name,
start, end and the index of the enclosing span. Leaving the ``with`` block
restores every original, so untraced calls run the program unchanged. Spans
stay in memory and are written out when the run ends.

:func:`traced_run` pairs every traced call with an untraced call on the same
input, and :func:`layer_metrics` turns the spans into the per-layer metrics.

A layer's self time is the duration of its spans minus the time covered by
their direct child spans, so the self times of one call add up to its root
span.
"""

from __future__ import annotations

import functools
import json
import statistics
from collections import Counter
from time import perf_counter

from inhomk import asymcov, cli, geometry, gof, intensity, kstat, limitlaw, simulate, study

# Span name -> per-layer metric holding its self time.
SELF_TIME_METRICS = {
    "seeds.stream": "seeds.stream.s",
    "simulate": "simulate.s",
    "geometry.validate": "geometry.validate.s",
    "geometry.close_pairs": "geometry.close_pairs.s",
    "kstat": "kstat.s",
    "intensity": "intensity.s",
    "qmc": "qmc.s",
    "asymcov": "asymcov.self_s",
    "limitlaw": "limitlaw.s",
    "gof.null_tables": "gof.null_tables.s",
    "gof.critical": "gof.critical.s",
    "io": "io.s",
    "cli": "cli.self_s",
    "study": "study.self_s",
    "analysis": "analysis.self_s",
}

COUNT_METRICS = (
    "seeds.stream.calls",
    "simulate.points",
    "geometry.close_pairs.calls",
    "geometry.close_pairs.pairs",
    "intensity.newton_iterations",
    "qmc.calls",
    "qmc.points",
    "gof.critical.calls",
    "gof.critical.distinct_beta",
)


def _count_stream(tracer, args, result):
    tracer.counts["seeds.stream.calls"] += 1


def _count_points(tracer, args, result):
    tracer.counts["simulate.points"] += len(result)


def _count_pairs(tracer, args, result):
    tracer.counts["geometry.close_pairs.calls"] += 1
    tracer.counts["geometry.close_pairs.pairs"] += len(result)


def _count_newton(tracer, args, result):
    tracer.counts["intensity.newton_iterations"] += result.iterations


def _count_qmc(tracer, args, result):
    points = result[0] if isinstance(result, tuple) else result
    tracer.counts["qmc.calls"] += 1
    tracer.counts["qmc.points"] += len(points)


def _count_known_critical(tracer, args, result):
    # args = (tables, alpha, rho); the known-draws cache is per tables object.
    tracer.counts["gof.critical.calls"] += 1
    key = (id(args[0]), args[2])
    if key not in tracer.seen_beta:
        tracer.seen_beta.add(key)
        tracer.counts["gof.critical.distinct_beta"] += 1


def _patch_table():
    """(owner, attribute, span name, counter) for every traced call site."""
    tables = gof.PoissonNullTables
    return [
        (study, "stream", "seeds.stream", _count_stream),
        (simulate, "stream", "seeds.stream", _count_stream),
        (gof, "stream", "seeds.stream", _count_stream),
        (limitlaw, "stream", "seeds.stream", _count_stream),
        (study, "simulate_poisson", "simulate", _count_points),
        (study, "simulate_matern", "simulate", _count_points),
        (simulate, "simulate_poisson_inhom", "simulate", _count_points),
        (geometry.PointPattern, "__post_init__", "geometry.validate", None),
        (kstat, "close_pairs", "geometry.close_pairs", _count_pairs),
        (study, "k_hat", "kstat", None),
        (kstat, "k_hat", "kstat", None),
        (kstat, "h_matrix", "kstat", None),
        (intensity, "fit_loglinear", "intensity", _count_newton),
        (asymcov, "cl_sensitivity", "intensity", None),
        (asymcov, "ball_shell_points", "qmc", _count_qmc),
        (asymcov, "ball_points_weighted", "qmc", _count_qmc),
        (cli, "sigma_blocks_constant", "asymcov", None),
        (cli, "cov_estimated_constant", "asymcov", None),
        (cli, "h_limit_constant", "asymcov", None),
        (cli, "compose_lim_cov", "asymcov", None),
        (asymcov, "loglinear_sigma_blocks", "asymcov", None),
        (asymcov, "h_limit_loglinear", "asymcov", None),
        (asymcov, "compose_lim_cov", "asymcov", None),
        (gof, "cholesky_with_jitter", "limitlaw", None),
        (gof, "normal_reservoir", "limitlaw", None),
        (limitlaw, "cholesky_with_jitter", "limitlaw", None),
        (limitlaw, "normal_reservoir", "limitlaw", None),
        (limitlaw, "simulate_sup", "limitlaw", None),
        (limitlaw, "critical_value", "limitlaw", None),
        (tables, "__init__", "gof.null_tables", None),
        (tables, "known_critical", "gof.critical", _count_known_critical),
        (tables, "estimated_critical", "gof.critical", None),
        (cli, "write_matrix_csv", "io", None),
    ]


class Tracer:
    """Spans and counts of one traced call; use as a context manager."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.seen_beta: set = set()
        self._open: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            span = [name, perf_counter(), 0.0, parent]
            self.spans.append(span)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._open.pop()
            if count is not None:
                count(self, args, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for owner, attr, name, count in _patch_table():
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, count))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        """Self time per span name, in seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Counter = Counter()
        for (name, start, end, _), covered in zip(self.spans, child_time):
            totals[name] += end - start - covered
        return dict(totals)


def traced_run(calls, seconds: float):
    """Alternating untraced and traced calls on the same inputs.

    Which of the pair goes first alternates too, so neither side always runs
    on warm caches. Returns the untraced walls, traced walls and tracers.
    """
    plain, traced, tracers = [], [], []
    k = 1
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        inp = calls.workload.input(k)
        tracer = Tracer()
        outputs = {}
        for side in (("plain", "traced") if k % 2 else ("traced", "plain")):
            wall, outputs[side] = calls.run(inp, tracer if side == "traced" else None)
            (traced if side == "traced" else plain).append(wall)
        tracers.append(tracer)
        if None not in outputs.values() and not calls.workload.same(
            outputs["plain"], outputs["traced"]
        ):
            calls.fail(f"{calls.workload.name} input {inp!r}: traced output differs")
        k += 1
    return plain, traced, tracers


def layer_metrics(plain, traced, tracers) -> dict:
    totals = {}
    for tracer in tracers:
        for span, seconds in tracer.self_times().items():
            totals[span] = totals.get(span, 0.0) + seconds
    metrics = {
        metric: totals.get(span, 0.0) / len(tracers)
        for span, metric in SELF_TIME_METRICS.items()
    }
    # Counts come from the run's first input, so they repeat exactly per seed.
    metrics.update({name: tracers[0].counts[name] for name in COUNT_METRICS})
    metrics["trace.wall_s"] = statistics.median(traced)
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(traced) / statistics.median(plain) - 1.0
    )
    metrics["trace.coverage_pct"] = 100.0 * sum(totals.values()) / sum(traced)
    return metrics


def write_spans(path, name: str, seed: int, traced, tracers) -> None:
    calls = [{"wall_s": wall, "spans": t.spans} for wall, t in zip(traced, tracers)]
    path.write_text(json.dumps({"workload": name, "seed": seed, "calls": calls}))
