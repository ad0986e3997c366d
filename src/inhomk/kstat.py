"""K-function estimators and the intensity-gradient matrix H.

The estimator sums, over ordered point pairs within distance r, the
translation edge correction divided by the product of intensities at the two
points. The summand is symmetric, so each unordered pair is enumerated once at
the largest grid radius and counted twice. One accumulator serves every
statistic: pair contributions are summed per radius bin (the first grid
radius at or above the pair distance) and all grid values are read off twice
the cumulative sum over bins; a batch of patterns shares one pair scan and
keys its bins by pattern too. A bin is ``floor(dist * m / rmax)`` (exact on
the even grid up to rounding) moved one place at a time toward the first
radius at or above its distance until none moves, so it equals
``searchsorted(side="left")`` on every grid ``RadiusGrid`` accepts, with the
dropped bin ``m`` from one ulp above ``rmax``. The H matrix uses the same pair
weights times the summed log-intensity gradients of the pair.

Grids exclude r = 0 (the limit covariance degenerates there). Statistics are
evaluated on the grid rather than the continuum; between grid points the
estimator is a monotone step function, so the sup over the grid misses at most
the largest single-pair jump below grid resolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gamma, pi

import numpy as np

from .geometry import (PairList, PointPattern, check_integer, check_positive, close_pairs,
                       overlap_volume)
from .intensity import check_window

__all__ = [
    "RadiusGrid",
    "Curve",
    "k_hat",
    "k_poisson",
    "h_matrix",
]

DEFAULT_GRID_SIZE = 50


@dataclass(frozen=True)
class RadiusGrid:
    """Evenly spaced radii ``0 < r_1 < ... < r_m = rmax``."""

    values: np.ndarray

    def __post_init__(self):
        # Each radius passes the number rule before the float conversion, which
        # would take a boolean or a numeric string as a radius.
        if np.ndim(self.values) != 1 or len(self.values) < 2:
            raise ValueError("grid needs at least two radii")
        names = ["smallest radius"] + ["grid radius"] * (len(self.values) - 2) + ["rmax"]
        for value, name in zip(self.values, names):
            check_positive(value, name)
        vals = np.asarray(self.values, dtype=float)
        steps = np.diff(vals)
        if not np.all(steps > 0):
            raise ValueError("grid radii must be strictly increasing")
        if not np.allclose(steps, steps[0], rtol=1e-9):
            raise ValueError("grid radii must be evenly spaced")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @classmethod
    def uniform(cls, rmax: float, m: int = DEFAULT_GRID_SIZE) -> "RadiusGrid":
        """m points on (0, rmax], evenly spaced, last exactly rmax."""
        check_positive(rmax, "rmax")
        check_integer(m, "grid_size")
        return cls(np.append(rmax * np.arange(1, m) / m, rmax))

    @property
    def m(self) -> int:
        return len(self.values)

    @property
    def rmax(self) -> float:
        return float(self.values[-1])


@dataclass(frozen=True)
class Curve:
    """Values sampled on a radius grid; one scalar or p-vector per radius."""

    grid: RadiusGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape[0] != self.grid.m:
            raise ValueError("curve length does not match grid")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


def k_poisson(r, dim: int):
    """Theoretical K under the Poisson null: volume of the r-ball (pi r^2 in the plane)."""
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("radius must be nonnegative")
    unit_ball = pi ** (dim / 2.0) / gamma(dim / 2.0 + 1.0)
    out = unit_ball * r**dim
    return float(out) if out.ndim == 0 else out


def _pair_weights(points: np.ndarray, window, model, pairs: PairList) -> np.ndarray:
    """Edge correction over intensity product, per listed pair."""
    check_window(model, window)
    rho = np.asarray(model.value(points), dtype=float)
    if np.any(rho <= 0):
        raise ValueError("invalid intensity: nonpositive value at a data point")
    overlap = overlap_volume(window, pairs.disp)
    if np.any(overlap <= 0.0):
        raise ValueError("pair displacement exceeds window")
    return 1.0 / (overlap * rho[pairs.i] * rho[pairs.j])


def _radius_bins(grid: RadiusGrid, dist: np.ndarray) -> np.ndarray:
    """``np.searchsorted(grid.values, dist, side="left")`` by the rule above."""
    edges = np.concatenate(([-np.inf], grid.values, [np.inf]))
    bins = np.minimum(dist * (grid.m / grid.rmax), grid.m).astype(np.intp)
    while True:
        moves = np.subtract(edges.take(bins + 1) < dist, edges.take(bins) >= dist, dtype=np.intp)
        if not moves.any():
            return bins
        bins += moves


def _accumulate(pairs: PairList, contrib: np.ndarray, grid: RadiusGrid, group=0, groups=1):
    """Per group, sum symmetric pair contributions over ordered pairs with 0 < dist <= r.

    ``contrib`` holds one value (or one row) per unordered pair, keyed
    ``group * (m + 1) + bin`` by the batch index of its pattern. A pair at
    distance exactly ``r`` counts at ``r``; pairs beyond ``grid.rmax`` fall in
    the dropped bin ``m``.
    """
    size = grid.m + 1
    keys = group * size + _radius_bins(grid, pairs.dist)
    if contrib.ndim == 1:
        sums = np.bincount(keys, contrib, groups * size)
    else:
        sums = np.stack([np.bincount(keys, col, groups * size) for col in contrib.T], axis=1)
    sums = sums.reshape(groups, size, *contrib.shape[1:])
    return 2.0 * np.cumsum(sums[:, : grid.m], axis=1)


def k_hat(pattern, model, grid: RadiusGrid) -> Curve | list[Curve]:
    """Edge-corrected K-function estimate on a radius grid.

    Parameters
    ----------
    pattern : PointPattern, or a sequence of them on one window
        A sequence is scanned as one batch and gives a list of curves.
    model : intensity model exposing ``value(points)``
        Known intensity gives the unbiased estimator; a fitted model gives the
        plug-in estimator.
    grid : RadiusGrid

    Empty and singleton patterns yield an all-zero curve.
    """
    single = isinstance(pattern, PointPattern)
    batch = [pattern] if single else list(pattern)
    pairs = close_pairs(batch, grid.rmax)
    points = np.concatenate([p.points for p in batch])
    group = np.repeat(np.arange(len(batch)), [len(p) for p in batch])[pairs.i]
    weights = _pair_weights(points, batch[0].window, model, pairs)
    curves = [Curve(grid, v) for v in _accumulate(pairs, weights, grid, group, len(batch))]
    return curves[0] if single else curves


def h_matrix(pattern: PointPattern, model, grid: RadiusGrid) -> Curve:
    """Gradient curve H(r): minus the pair sum weighted by summed log-intensity gradients.

    For the constant model this equals ``-(2/beta) k_hat`` exactly at every
    grid point.
    """
    pairs = close_pairs(pattern, grid.rmax)
    w = _pair_weights(pattern.points, pattern.window, model, pairs)
    grad = np.asarray(model.log_gradient(pattern.points), dtype=float)
    contrib = -w[:, None] * (np.take(grad, pairs.i, axis=0) + np.take(grad, pairs.j, axis=0))
    return Curve(grid, _accumulate(pairs, contrib, grid)[0])
