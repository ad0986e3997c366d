"""Kolmogorov-Smirnov goodness-of-fit test for the homogeneous Poisson null.

One decision path serves :func:`gof_test` and the study harness. The
statistic (:func:`sup_distance`) is ``sqrt(|W|) sup_r |Khat(r) - K(r)|`` over
the radius grid, with ``K`` the ball volume of the pattern's dimension and
Khat the unit-intensity curve divided by the squared intensity estimate.
Critical values (:func:`critical_values`) come from the Monte Carlo law of
the sup of the limiting Gaussian process, under either the
estimated-intensity covariance ``2 K(min(s,t)) / rho^2`` or the
known-intensity covariance (which adds ``4 K(s) K(t) / rho``), both from
:func:`inhomk.asymcov.poisson_cov_matrix`; in both variance formulas the
unknown intensity is replaced by the estimate. The sup
is taken over the same grid used to simulate the Gaussian process, so the
statistic and its null law are directly comparable. Critical values and
p-values are read off the draws by the rules in :mod:`inhomk.limitlaw`;
:class:`PoissonNullTables` only supplies the draws, as sorted arrays, from
the signed rho = 1 paths of :func:`inhomk.limitlaw.gaussian_paths`, the one
sampler of the limit law. Its known-intensity draws are exact at every
estimate without a full pass over the table: each draw is a maximum of lines
in ``sqrt(rho)``, and between two rungs ``2**(j/8)`` of a fixed ladder only
the lines that can win there are evaluated, so the draw is bitwise equal to
the full maximum. Most rows keep one line.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import floor, isfinite, log2, sqrt

import numpy as np

from .asymcov import MODES, poisson_cov_matrix
from .geometry import PointPattern, Window, check_integer, check_positive
from .intensity import ConstantIntensity, estimate_constant
from .kstat import RadiusGrid, k_hat, k_poisson
from .limitlaw import check_sample_size, gaussian_paths, p_value, upper_quantile
# Unused here: the benchmark tracer (perfbench/spans.py) patches these names on
# this module, so they must resolve until its patch table drops them.
from .limitlaw import cholesky_with_jitter, normal_reservoir  # noqa: F401
from .seeds import stream

__all__ = [
    "GofConfig",
    "GofResult",
    "PoissonNullTables",
    "plug_in",
    "sup_distance",
    "critical_values",
    "gof_test",
]


@dataclass(frozen=True)
class GofConfig:
    """Configuration of one goodness-of-fit test.

    ``mode='estimated'`` uses the estimated-intensity variance formula;
    ``mode='known'`` uses the known-intensity formula with the estimate
    plugged in, quantifying what mistaking the estimate for the truth does to
    the test. Both modes plug the estimate into the statistic as well.
    """

    R: float = 0.05
    grid_size: int = 50
    alpha: float = 0.05
    mode: str = "estimated"
    sample_size: int = 10_000
    seed: int = 0

    def __post_init__(self):
        check_positive(self.R, "R")
        check_positive(self.alpha, "alpha")
        if self.alpha >= 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if self.mode not in MODES:
            raise ValueError("mode must be 'estimated' or 'known'")
        for name in ("grid_size", "seed"):
            check_integer(getattr(self, name), name)
        check_sample_size(self.sample_size, "sample_size")

    def grid(self) -> RadiusGrid:
        return RadiusGrid.uniform(self.R, self.grid_size)


@dataclass(frozen=True)
class GofResult:
    statistic: float
    critical_value: float
    p_value: float
    reject: bool
    beta_hat: float
    config: GofConfig

    def to_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "critical_value": self.critical_value,
            "p_value": self.p_value,
            "reject": self.reject,
            "beta_hat": self.beta_hat,
            "mode": self.config.mode,
            "alpha": self.config.alpha,
            "R": float(self.config.R),
            "grid_size": int(self.config.grid_size),
            "sample_size": self.config.sample_size,
            "seed": self.config.seed,
        }


class PoissonNullTables:
    """Shared Monte Carlo tables for the Poisson null on one grid, in ``dim`` dimensions.

    One standard-normal reservoir is drawn per seed and reused for every
    intensity: the estimated-intensity sup draws scale exactly as ``1/rho``
    (so a single table at rho = 1 serves all estimates), while the
    known-intensity covariance splits into the rho = 1 factor ``S`` scaled by
    ``1/rho`` plus an independent rank-one part ``xi a`` (``a_r = 2 K(r)``)
    scaled by ``1/sqrt(rho)``.

    Known-mode draws are exact without a full pass per estimate. With
    ``s = sqrt(rho)``, draw ``i`` is ``max_r |xi_i a_r s + S_ir| / rho``: up to
    the factor ``1/rho``, a maximum of the 2m signed lines
    ``+-(xi_i a_r s + S_ir)``, convex and piecewise linear in ``s``. The
    tables keep a ladder of rungs ``s_j = 2**(j/8)``, built lazily, and record
    per row and rung the winning line (its ``r`` and its sign) and whether it
    leads the runner-up by more than ``1e-9 (|xi_i| max_r a_r s + max_r
    |S_ir|)``. When the same ``r`` with the same sign wins with that margin at
    both ends of a bracket ``[s_j, s_j+1]``, it wins on the whole bracket,
    because its difference with any other line is linear in ``s``; the row's
    draw there is that one term, computed with the same operations as the
    full-width maximum and so bitwise equal to it. The sign matters: a line
    whose sign flips inside the bracket crosses zero there. Other rows keep
    the lines that can still win (:func:`_kept_lines`), counted by :attr:`full_rows`.

    Every draw and critical-value method rejects an intensity that is not
    finite and positive, and one so small that the draws overflow.
    """

    def __init__(self, grid: RadiusGrid, sample_size: int, seed: int, dim: int = 2):
        self.sample_size = int(sample_size)
        # Signed rho=1 estimated-covariance paths plus one extra normal per
        # draw for the rank-one known-intensity component 2 K(r) / sqrt(rho).
        base = poisson_cov_matrix(grid, 1.0, "estimated", dim)
        self._signed = gaussian_paths(base, self.sample_size, seed)
        self._xi = stream(seed, "supnorm-xi").standard_normal(self.sample_size)
        self._rank_one = 2.0 * k_poisson(grid.values, dim)
        self._peak = np.abs(self._signed).max(axis=1)
        self._std_estimated = np.sort(self._peak)
        self._std_critical: dict[float, float] = {}  # level -> rho = 1 critical value
        # Certificate ladder: rung j -> per-row winning line; bracket j ->
        # the line terms kept on [s_j, s_j+1].
        self._rungs: dict[int, tuple] = {}
        self._brackets: dict[int, tuple] = {}
        self._full_rows = 0

    @property
    def full_rows(self) -> int:
        """(row, rho) pairs that :meth:`known_draws` found without a one-line certificate."""
        return self._full_rows

    def estimated_draws(self, rho: float) -> np.ndarray:
        """Sorted sup draws under the estimated-intensity covariance at ``rho``."""
        check_positive(rho, "rho")
        with np.errstate(over="ignore"):
            return _finite(self._std_estimated / rho, rho)

    def known_draws(self, rho: float) -> np.ndarray:
        """Sorted sup draws under the known-intensity covariance at ``rho``."""
        return np.sort(self._known(rho))

    def estimated_critical(self, alpha: float, rho: float) -> float:
        # The order statistic of the rho = 1 table divided by rho: division by
        # a positive rho keeps the order, so it is the scaled table's statistic.
        check_positive(rho, "rho")
        with np.errstate(over="ignore"):
            _finite(self._std_estimated[-1:] / rho, rho)
        if alpha not in self._std_critical:
            self._std_critical[alpha] = upper_quantile(self._std_estimated, alpha)
        return self._std_critical[alpha] / rho

    def known_critical(self, alpha: float, rho: float) -> float:
        return upper_quantile(self._known(rho), alpha)

    def _known(self, rho: float) -> np.ndarray:
        """Known-mode draws at ``rho``, in no particular order."""
        check_positive(rho, "rho")
        root = sqrt(rho)
        term, signed, starts = self._bracket(_bracket_index(root))
        # The operations of the full-width maximum, on the kept lines only.
        with np.errstate(over="ignore", invalid="ignore"):
            values = np.abs(term / root + signed / rho)
        single = self.sample_size - len(starts)
        draws = np.concatenate([values[:single], np.maximum.reduceat(values[single:], starts)])
        self._full_rows += len(starts)
        return _finite(draws, rho)

    def _lines(self, rows, j: int) -> tuple:
        """Signed lines ``xi a s_j + S`` of ``rows`` at rung ``j``, and the rows' margins."""
        slope = self._xi[rows] * _rung_value(j)
        lines = np.multiply.outer(slope, self._rank_one)
        lines += self._signed[rows]
        return lines, _MARGIN * (np.abs(slope) * self._rank_one.max() + self._peak[rows])

    def _rung(self, j: int) -> tuple:
        """Per row at ``s_j``: the winning ``r``, its sign, and whether it leads."""
        if j not in self._rungs:
            height, margin = self._lines(slice(None), j)
            np.abs(height, out=height)
            rows = np.arange(self.sample_size)
            winner = height.argmax(axis=1)
            top = height[rows, winner]
            # The runner-up among the signed lines is the best other r: the
            # winner's own mirror image -top is below it (a grid has m >= 2).
            height[rows, winner] = 0.0
            lead = top - height[rows, height.argmax(axis=1)]
            line = self._xi * _rung_value(j) * self._rank_one[winner] + self._signed[rows, winner]
            self._rungs[j] = (winner, line > 0, lead > margin)
        return self._rungs[j]

    def _bracket(self, j: int) -> tuple:
        """Terms kept on ``[s_j, s_j+1]``, certified rows first; the others' group starts."""
        if j not in self._brackets:
            winner, sign, leads = self._rung(j)
            winner_up, sign_up, leads_up = self._rung(j + 1)
            certified = leads & leads_up & (winner == winner_up) & (sign == sign_up)
            others = np.flatnonzero(~certified)
            keep = _kept_lines(*self._lines(others, j), *self._lines(others, j + 1))
            counts = keep.sum(axis=1)
            index, lines = np.nonzero(keep)
            rows = np.concatenate([np.flatnonzero(certified), others[index]])
            lines = np.concatenate([winner[certified], lines])
            self._brackets[j] = (
                self._xi[rows] * self._rank_one[lines],
                self._signed[rows, lines],
                np.cumsum(counts) - counts,
            )
        return self._brackets[j]


def _kept_lines(lower, lower_margin, upper, upper_margin) -> np.ndarray:
    """Mask of the lines (columns) that can win a row's maximum between two rungs,
    from their signed values and each row's margin at both. A rung winner whose
    sign holds at both rungs, minus any other ``|line|``, is concave on the bracket:
    where it exceeds the margin at both rungs, that line never wins in between."""
    keep = np.ones(lower.shape, dtype=bool)
    rows = np.arange(len(lower))
    low, up = np.abs(lower), np.abs(upper)
    for winner in (low.argmax(axis=1), up.argmax(axis=1)):
        stable = lower[rows, winner] * upper[rows, winner] > 0
        beaten = (low[rows, winner, None] - low > lower_margin[:, None]) & (
            up[rows, winner, None] - up > upper_margin[:, None]
        )
        keep &= ~(beaten & stable[:, None])
    return keep


# Ladder of the known-mode certificate: rungs s_j = 2**(j / _RUNGS_PER_DOUBLING)
# in s = sqrt(rho), and the lead a winning line needs at a rung, relative to
# the row's scale |xi| max a s + max |S|.
_RUNGS_PER_DOUBLING = 8
_MARGIN = 1e-9


def _rung_value(j: int) -> float:
    return 2.0 ** (j / _RUNGS_PER_DOUBLING)


def _bracket_index(s: float) -> int:
    """The ``j`` with ``s_j <= s <= s_j+1``, checked against the rung values."""
    j = floor(_RUNGS_PER_DOUBLING * log2(s))
    while _rung_value(j) > s:
        j -= 1
    while _rung_value(j + 1) < s:
        j += 1
    return j


def _finite(draws: np.ndarray, rho: float) -> np.ndarray:
    if not isfinite(draws.max()):
        raise ValueError(f"null draws overflow at intensity {rho!r}")
    return draws


def plug_in(curves, rho) -> np.ndarray:
    """Unit-intensity K curves (last axis) at intensity ``rho``: ``curves / rho**2``."""
    return curves / np.square(np.asarray(rho, dtype=float))[..., None]


def sup_distance(curves, rho, grid: RadiusGrid, window: Window):
    """``sqrt(|W|)`` times the grid sup of ``|plug_in(curves, rho) - K_poisson(r)|``.

    ``curves`` holds unit-intensity K estimates on ``grid`` along its last
    axis, and one distance is returned per leading index.
    """
    null = k_poisson(grid.values, window.dim)
    return sqrt(window.volume) * np.abs(plug_in(curves, rho) - null).max(axis=-1)


def critical_values(tables: PoissonNullTables, mode: str, alpha: float, estimates):
    """Critical value at each intensity estimate under the ``mode`` null.

    One ``tables.{mode}_critical`` call per distinct estimate; the result has
    the shape of ``estimates``.
    """
    critical = getattr(tables, f"{mode}_critical")
    distinct, inverse = np.unique(estimates, return_inverse=True)
    return np.array([critical(alpha, b) for b in distinct])[inverse]


def gof_test(pattern: PointPattern, config: GofConfig) -> GofResult:
    """Run the Kolmogorov-Smirnov test of the homogeneous Poisson null.

    The statistic and the critical value are those of the study harness for
    the same pattern: :func:`sup_distance` of the unit-intensity curve and
    :func:`critical_values` at the estimate, from fresh tables of the
    config's grid, sample size and seed.
    """
    grid = config.grid()
    beta_hat = estimate_constant(pattern)
    unit = k_hat(pattern, ConstantIntensity(1.0), grid).values
    statistic = float(sup_distance(unit, beta_hat, grid, pattern.window))
    tables = PoissonNullTables(grid, config.sample_size, config.seed, pattern.window.dim)
    crit = float(critical_values(tables, config.mode, config.alpha, beta_hat))
    pval = p_value(getattr(tables, f"{config.mode}_draws")(beta_hat), statistic)

    return GofResult(
        statistic=statistic,
        critical_value=crit,
        p_value=pval,
        reject=statistic > crit,
        beta_hat=beta_hat,
        config=config,
    )
