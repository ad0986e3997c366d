"""Monte Carlo study harness: rejection probabilities and covariance oracles.

Replicate ``r`` of cell ``i`` always draws from ``stream(seed, i * 10**6 + r)``
(so a cell holds fewer than ``10**6`` replicates), and results are identical
no matter how replicates are scheduled; worker processes only ever receive
disjoint replicate ranges and the merged output preserves replicate order.
One runner serves both the rejection study and the covariance oracle: per
replicate it returns the point count and the unit-intensity K curve on the
grid, from which every plug-in estimate is an exact rescaling. The oracle runs
the study's own cells. Consecutive replicates share one pair scan up to fixed
budgets of points and neighbor rows, ``_SCAN_POINTS`` and ``_SCAN_ROWS``, with
the pair scan's own row count :func:`~inhomk.geometry.scan_rows` per point:
thousands of points per set of array calls, in bounded memory, no pair across patterns.

The study decides through the two calls of :func:`inhomk.gof.gof_test`,
:func:`~inhomk.gof.sup_distance` at the replicates' estimates and
:func:`~inhomk.gof.critical_values`, so each replicate's critical value is
bitwise ``gof_test``'s on its pattern. So is its statistic when the pair scan
gives the batch and the pattern alone the same cells per axis, as it does when
neither holds fewer than ``(floor(side / R) + 2)**d / 4`` points per pattern
(121 and 441 for Table 1's sides 1 and 2 at R 0.05; rho 200 gives 200 and
800). Otherwise the statistic agrees to rounding. Within a cell the same
simulated patterns are evaluated under every requested variance mode (that is
what makes the known-vs-estimated comparison a paired one), sharing one null
table, so each distinct estimate costs one critical-value call per mode.
Windows and null tables take the config's dimension, up to the pair
scan's ``MAX_SCAN_DIM`` (12): the Poisson null is exact in each.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, fields
from math import sqrt

import numpy as np

from .asymcov import MODES
from .geometry import MAX_SCAN_DIM, Window, check_integer, check_positive, scan_rows
from .gof import PoissonNullTables, critical_values, plug_in, sup_distance
from .intensity import ConstantIntensity
from .kstat import RadiusGrid, k_hat
from .limitlaw import check_sample_size
from .seeds import stream
from .simulate import MaternParams, simulate_matern, simulate_poisson

__all__ = [
    "StudyConfig",
    "StudyCell",
    "StudyResult",
    "rejection_study",
    "empirical_cov_oracle",
]

_CELL_STRIDE = 10**6
_CHUNK = 250
_SCAN_POINTS = 8192
_SCAN_ROWS = 2**22
_FAILURE_CAP = 0.01


@dataclass(frozen=True)
class StudyConfig:
    """One rejection-probability study: a process, windows, and test modes.

    ``alpha`` is in (0, 1]; ``alpha = 1`` rejects every evaluable replicate.
    ``rho``, ``R`` and every side must be finite and positive. ``matern`` is
    given for a matern study only (``rho`` is accepted, and unread, there too).
    Windows and null tables are ``dim``-dimensional, ``1 <= dim <= 12``. A cell holds at
    least 100 and fewer than ``_CELL_STRIDE`` (10**6) replicates, so no two
    cells share a stream. The null law takes at least ``MIN_SAMPLE`` (100)
    draws, ``sample_size``, on a grid of at least two radii, ``grid_size``.
    """

    process: str = "poisson"
    rho: float = 200.0
    matern: MaternParams | None = None
    sides: tuple[float, ...] = (1.0, 2.0)
    modes: tuple[str, ...] = MODES
    replicates: int = 2000
    alpha: float = 0.05
    R: float = 0.05
    grid_size: int = 50
    sample_size: int = 10_000
    seed: int = 0
    dim: int = 2
    workers: int = 1

    def __post_init__(self):
        if self.process not in ("poisson", "matern"):
            raise ValueError("process must be 'poisson' or 'matern'")
        if self.process == "matern" and not isinstance(self.matern, MaternParams):
            raise ValueError("matern parameters required for a matern study")
        if self.process == "poisson" and self.matern is not None:
            raise ValueError("matern parameters apply to a matern study only")
        for name in ("replicates", "grid_size", "seed", "dim", "workers"):
            check_integer(getattr(self, name), name)
        for name in ("sides", "modes"):
            if not isinstance(getattr(self, name), (list, tuple)):
                raise ValueError(f"{name} must be a list")
        for name, value in (("rho", self.rho), ("alpha", self.alpha), ("R", self.R),
                            *(("side", side) for side in self.sides)):
            check_positive(value, name)
        if not 100 <= self.replicates < _CELL_STRIDE:
            raise ValueError(f"replicates must be at least 100 and below {_CELL_STRIDE}")
        check_sample_size(self.sample_size, "sample_size")
        if self.grid_size < 2:
            raise ValueError("grid_size must be >= 2")
        if self.alpha > 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if not 1 <= self.dim <= MAX_SCAN_DIM:
            raise ValueError(f"window dimension must be >= 1 and <= {MAX_SCAN_DIM}")
        for mode in self.modes:
            if mode not in MODES:
                raise ValueError(f"unknown mode {mode!r}")
        if len(set(self.sides)) < len(self.sides):
            raise ValueError("sides must be distinct")
        object.__setattr__(self, "sides", tuple(float(s) for s in self.sides))
        object.__setattr__(self, "modes", tuple(self.modes))

    @classmethod
    def from_dict(cls, raw: dict) -> "StudyConfig":
        if not isinstance(raw, dict):
            raise ValueError("study config must be a JSON object")
        # JSON gives the Matern parameters as three keys, not as "matern".
        triple = {"kappa", "mu", "rdisp"}
        keys = ({f.name for f in fields(cls)} - {"matern"}) | triple
        unknown = sorted(raw.keys() - keys)
        if unknown:
            raise ValueError(f"unknown study config key: {', '.join(unknown)}")
        raw = dict(raw)
        if triple & raw.keys():
            if not triple <= raw.keys():
                missing = ", ".join(sorted(triple - raw.keys()))
                raise ValueError(f"matern parameters need kappa, mu and rdisp; missing {missing}")
            raw["matern"] = MaternParams(raw.pop("kappa"), raw.pop("mu"), raw.pop("rdisp"))
        return cls(**raw)


@dataclass(frozen=True)
class StudyCell:
    side: float
    mode: str
    replicates: int
    rejections: int
    failures: int
    wall_time: float

    @property
    def rejection_rate(self) -> float:
        return self.rejections / self.replicates

    @property
    def std_error(self) -> float:
        p = self.rejection_rate
        return sqrt(p * (1.0 - p) / self.replicates)


@dataclass(frozen=True)
class StudyResult:
    config: StudyConfig
    cells: tuple[StudyCell, ...]

    def cell(self, side: float, mode: str) -> StudyCell:
        for c in self.cells:
            if c.side == side and c.mode == mode:
                return c
        raise KeyError(f"no cell for side={side}, mode={mode}")

    def to_markdown(self) -> str:
        lines = [
            "| process | side | mode | rejection rate | std error | replicates | failures "
            "| seconds |",
            "|---|---|---|---|---|---|---|---|",
        ]
        for c in self.cells:
            lines.append(
                f"| {self.config.process} | {c.side:g} | {c.mode} | {c.rejection_rate:.4f} "
                f"| {c.std_error:.4f} | {c.replicates} | {c.failures} | {c.wall_time:.1f} |"
            )
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        lines = ["process,side,mode,rejection_rate,std_error,replicates,failures,seconds"]
        for c in self.cells:
            lines.append(
                f"{self.config.process},{c.side:.17g},{c.mode},{c.rejection_rate:.17g},"
                f"{c.std_error:.17g},{c.replicates},{c.failures},{c.wall_time:.17g}"
            )
        return "\n".join(lines) + "\n"


def _replicate_curves(job):
    """Point counts and unit-intensity K curves of replicates [lo, hi) of one cell.

    One unit-intensity curve serves every variance mode and plug-in value
    (:func:`~inhomk.gof.plug_in`). Empty and singleton patterns give
    an all-zero curve. Consecutive patterns share one scan until they hold
    ``_SCAN_POINTS`` points or ``_SCAN_ROWS`` neighbor rows, which bounds the
    memory a scan takes.
    """
    config, side, grid, cell_index, lo, hi = job
    window = Window(config.dim, side)
    unit = ConstantIntensity(1.0)
    counts = np.empty(hi - lo, dtype=np.int64)
    curves = np.empty((hi - lo, grid.m))
    budget = min(_SCAN_POINTS, _SCAN_ROWS // scan_rows(config.dim))
    batch, filled = [], 0
    for k, rep in enumerate(range(lo, hi)):
        rng = stream(config.seed, cell_index * _CELL_STRIDE + rep)
        if config.process == "poisson":
            pattern = simulate_poisson(config.rho, window, rng)
        else:
            pattern = simulate_matern(config.matern, window, rng)
        counts[k] = len(pattern)
        batch.append(pattern)
        filled += len(pattern)
        if filled >= budget or rep == hi - 1:
            curves[k + 1 - len(batch) : k + 1] = [c.values for c in k_hat(batch, unit, grid)]
            batch, filled = [], 0
    return counts, curves


def _run_cell(config, side, grid, cell_index, executor):
    """Counts and unit-intensity curves of all replicates of one cell, in order."""
    jobs = [
        (config, side, grid, cell_index, lo, min(lo + _CHUNK, config.replicates))
        for lo in range(0, config.replicates, _CHUNK)
    ]
    parts = list((map if executor is None else executor.map)(_replicate_curves, jobs))
    counts = np.concatenate([p[0] for p in parts])
    curves = np.concatenate([p[1] for p in parts])
    return counts, curves


def _executor(workers: int):
    if workers <= 1:
        return nullcontext()
    # Imported only to start a pool: at module level they add dozens of modules to every import.
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context
    spawn = get_context("spawn")  # not fork: the parent may already run BLAS threads
    return ProcessPoolExecutor(max_workers=workers, mp_context=spawn)


def rejection_study(config: StudyConfig) -> StudyResult:
    """Rejection probability of the goodness-of-fit test, per (side, mode).

    Deterministic given the config seed, independent of the worker count.
    The sup statistic of every replicate is computed from its unit-intensity
    curve in one vectorized step, and critical values are evaluated once per
    distinct intensity estimate in a cell. Replicates that cannot be evaluated
    (empty patterns) count as failures; more than 1% failures in a cell aborts
    the study with a ``ValueError`` naming the side and both counts.
    """
    grid = RadiusGrid.uniform(config.R, config.grid_size)
    tables = PoissonNullTables(grid, config.sample_size, config.seed, config.dim)

    with _executor(config.workers) as executor:
        cells = []
        for cell_index, side in enumerate(config.sides):
            start = time.perf_counter()
            window = Window(config.dim, side)
            counts, curves = _run_cell(config, side, grid, cell_index, executor)
            ok = counts > 0
            failures = int((~ok).sum())
            if failures > _FAILURE_CAP * config.replicates:
                raise ValueError(
                    f"side {side:g}: {failures} of {config.replicates} replicates failed "
                    "(empty patterns), above the 1% cap"
                )
            beta_hats = counts[ok] / window.volume
            stats = sup_distance(curves[ok], beta_hats, grid, window)
            elapsed = time.perf_counter() - start
            for mode in config.modes:
                mode_start = time.perf_counter()
                crits = critical_values(tables, mode, config.alpha, beta_hats)
                rejections = int((stats > crits).sum())
                cells.append(
                    StudyCell(
                        side=side,
                        mode=mode,
                        replicates=config.replicates,
                        rejections=rejections,
                        failures=failures,
                        wall_time=elapsed + (time.perf_counter() - mode_start),
                    )
                )
    return StudyResult(config=config, cells=tuple(cells))


def empirical_cov_oracle(config: StudyConfig) -> dict[float, dict[str, np.ndarray]]:
    """Brute-force ``n Cov(Khat(s), Khat(t))`` on the config's grid: ``{side: {mode: matrix}}``.

    Cell ``i`` reads the study's cell-``i`` replicates ``stream(seed, i * 10**6 + r)``,
    at least 1000 of them. ``'estimated'`` plugs each replicate's count estimate into
    the estimator (empty patterns are left out), ``'known'`` the true intensity, for
    the Poisson process only; both come from one pass over the same replicates.
    ``modes``, ``alpha`` and ``sample_size`` are the test's settings, not read here.
    """
    if config.replicates < 1000:
        raise ValueError("need at least 1000 replicates for the oracle")
    grid = RadiusGrid.uniform(config.R, config.grid_size)
    oracle = {}
    with _executor(config.workers) as executor:
        for cell_index, side in enumerate(config.sides):
            volume = Window(config.dim, side).volume
            counts, curves = _run_cell(config, side, grid, cell_index, executor)
            ok = counts > 0
            estimates = {"estimated": plug_in(curves[ok], counts[ok] / volume)}
            if config.process == "poisson":
                estimates["known"] = plug_in(curves, config.rho)
            oracle[side] = {m: volume * np.cov(k, rowvar=False) for m, k in estimates.items()}
    return oracle
