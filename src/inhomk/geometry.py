"""Observation windows, window overlap volumes and fixed-radius pair search.

Windows are axis-aligned cubes ``[-L/2, L/2]^d`` centered at the origin. The
translation edge correction weight of a pair with displacement ``h`` is the
reciprocal of the overlap volume ``|W and (W + h)|``, which for a cube
factorizes over the axes. Pair search is a cell list over a batch of
patterns on one window: points are keyed by pattern, then by cell (cells no
smaller than the search radius, plus a margin) in a narrow unsigned dtype; a
stable sort (radix, for 16-bit keys) and a bincount give a cell-start table
whose ranges are each point's forward neighbor rows, ``scan_rows(d)`` per
point; one segment index maps every candidate to its range, and coordinates
are gathered column by column. A pair is within the radius when its float
distance, the ``sqrt`` of its squared distance, is at most the radius; no pair
crosses two patterns, and each unordered pair is returned once, in no order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import isfinite
from numbers import Integral, Real

import numpy as np

__all__ = [
    "check_positive",
    "check_integer",
    "Window",
    "PointPattern",
    "PairList",
    "overlap_volume",
    "close_pairs",
    "MAX_SCAN_DIM",
    "scan_rows",
]

# Pair search cells per batch point, at most, one-cell borders included,
# unless a single cell per axis already exceeds it.
_CELLS_PER_POINT = 4
# Pair search dimension, at most: each point reads scan_rows(d) neighbor rows,
# and one cell per axis with its borders takes 3**d table entries per pattern.
MAX_SCAN_DIM = 12


def _float(value, name: str) -> float:
    """``float(value)``, or ``"{name} is outside the float range"`` for a huge integer."""
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is outside the float range") from None


def check_positive(value: float, name: str) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is a finite, positive number.

    The one rule for intensities, window sides, radii, levels and cluster
    parameters. A boolean (a JSON ``true`` is a Python int) or a non-number,
    a numeric string included, raises ``"{name} must be a number"``, and an
    integer beyond the float range ``"{name} is outside the float range"``.
    """
    if not isinstance(value, Real) or isinstance(value, bool):
        raise ValueError(f"{name} must be a number")
    if not (isfinite(_float(value, name)) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


def check_integer(value: int, name: str) -> None:
    """Integer rule: a boolean, fraction or non-number raises ``"{name} must be an integer"``,
    and an integer beyond the float range ``"{name} is outside the float range"``."""
    if not isinstance(value, Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer")
    _float(value, name)


def scan_rows(dim: int) -> int:
    """Neighbor rows :func:`close_pairs` reads per point: (3^(d-1)+1)/2 of 3^(d-1)."""
    return (3 ** (dim - 1) + 1) // 2


@dataclass(frozen=True)
class Window:
    """Cubic observation window ``[-side/2, side/2]^dim``."""

    dim: int
    side: float

    def __post_init__(self):
        check_integer(self.dim, "dim")
        if self.dim < 1:
            raise ValueError("window dimension must be >= 1")
        check_positive(self.side, "side")

    @property
    def volume(self) -> float:
        return self.side**self.dim


@dataclass(frozen=True)
class PointPattern:
    """A finite simple point pattern observed inside a window.

    ``points`` is an ``(n, dim)`` float array. Every point must be finite and
    lie inside the window, and exact duplicates are rejected (the process is
    simple); near-duplicates are allowed.
    """

    window: Window
    points: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.size == 0:
            pts = pts.reshape(0, self.window.dim)
        if pts.ndim != 2 or pts.shape[1] != self.window.dim:
            raise ValueError(
                f"points must have shape (n, {self.window.dim}), got {pts.shape}"
            )
        reach = np.abs(pts).max() if pts.size else 0.0
        if not np.isfinite(reach):
            raise ValueError("point coordinates must be finite")
        if reach > self.window.side / 2.0:
            raise ValueError("point outside the observation window")
        # Equal rows share their first coordinate: compare whole rows, adjacent in
        # lexicographic order, only if two of those tie (-0.0 equals 0.0).
        first = np.sort(pts[:, 0])
        if (first[1:] == first[:-1]).any():
            ordered = pts[np.lexsort(pts.T)]
            if (ordered[1:] == ordered[:-1]).all(axis=1).any():
                raise ValueError("duplicate points: pattern must be simple")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class PairList:
    """All point pairs within a search radius, each unordered pair once.

    Every pair with ``0 < dist <= rmax`` appears exactly once, as ``(i, j)``
    or as ``(j, i)``, in no particular order; sums over ordered pairs count
    each entry twice. ``disp[k] = points[i[k]] - points[j[k]]`` and
    ``dist[k] = |disp[k]|``. For a batch, ``points`` are the batch's patterns
    concatenated in order, so ``i`` and ``j`` index that concatenation; both
    ends of a pair lie in one pattern.
    """

    i: np.ndarray
    j: np.ndarray
    disp: np.ndarray
    dist: np.ndarray

    def __post_init__(self):
        for arr in (self.i, self.j, self.disp, self.dist):
            arr.flags.writeable = False

    def __len__(self) -> int:
        return len(self.dist)


def overlap_volume(window: Window, h) -> float | np.ndarray:
    """Volume of the window intersected with its translate by ``h``.

    ``h`` may be a single displacement of length ``dim`` or an array of
    displacements with trailing axis ``dim``. Returns
    ``prod_i max(side - |h_i|, 0)``; zero once any component reaches the side.
    """
    h = np.asarray(h, dtype=float)
    if h.shape[-1] != window.dim:
        raise ValueError(f"displacement must have {window.dim} components")
    out = np.maximum(window.side - np.abs(h[..., 0]), 0.0)
    for k in range(1, window.dim):
        out = out * np.maximum(window.side - np.abs(h[..., k]), 0.0)
    return float(out) if out.ndim == 0 else out


def _cells_per_axis(side: float, rmax: float, dim: int, points: int, groups: int) -> int:
    """``floor(side / rmax)`` (cells no smaller than ``rmax``), capped so that
    the batch's ``groups`` bordered grids of ``(ncells + 2)**dim`` cells hold at
    most ``_CELLS_PER_POINT`` cells per point; at least one cell per axis."""
    cap = (_CELLS_PER_POINT * max(points, 1) / groups) ** (1.0 / dim) - 2.0
    return max(1, int(min(side / rmax, cap)))


def close_pairs(patterns, rmax: float) -> PairList:
    """Enumerate each unordered pair with ``0 < |x_i - x_j| <= rmax`` once.

    ``patterns`` is one :class:`PointPattern` or a sequence of them on one
    window, scanned as a batch. A point's key is its pattern's batch index,
    then its flat cell index, in the narrowest unsigned dtype that holds all
    keys (numpy's stable argsort is a radix sort up to 16 bits); a bincount
    of the sorted keys gives the cell-start table. Each point reads the
    :func:`scan_rows` forward ones of its 3^(d-1) neighbor rows as table ranges:
    its own row from its sorted position plus one, so that every unordered
    pair is visited once, and every other row whole. Candidate ``t`` lies in
    range ``seg[t] = cumsum(bincount(ends[:-1]))[t]`` of the ranges'
    cumulative ends, which gives its point and its offset, and coordinates are
    gathered per column. A pair is kept when its float distance ``dist =
    sqrt(dist2)`` (``dist2`` its einsum norm) has ``0 < dist <= rmax``, the rule
    of K's radius bins; ``sqrt`` rounds by at most half an ulp, so the exact
    ``sqrt(dist2)`` of a kept pair is under ``rmax (1 + 2**-53)``. Cells are
    ``side / ncells`` wide times the margin ``1 + 2**-44 (ncells + 1)``: rounding
    in the cell index and in a float distance moves a pair's index difference by
    under ``(ncells + 4) 2**-51``, so a kept pair never lies two cells apart along
    an axis. Face ``k`` moves by ``k`` margins of a cell, under 1e-10 of a cell up
    to 40 cells per axis. The set of pairs is independent of the cell layout
    (their order and orientation are not); a radius larger than the window
    simply means fewer cells. A dimension above ``MAX_SCAN_DIM`` (12) raises
    ``ValueError`` before any table is built; up to it, memory grows linearly
    with the batch's points and patterns: the cell table holds four entries per
    point, or 3^d per pattern where one cell per axis already needs more, and
    with one cell per axis a point reads only its own row.
    """
    batch = [patterns] if isinstance(patterns, PointPattern) else list(patterns)
    if not rmax > 0:
        raise ValueError("rmax must be positive")
    if not batch or any(p.window != batch[0].window for p in batch):
        raise ValueError("a batch needs at least one pattern, all on one window")
    d, groups = batch[0].window.dim, len(batch)
    if d > MAX_SCAN_DIM:
        raise ValueError(f"close_pairs takes dimension at most {MAX_SCAN_DIM}, got {d}")
    pts = np.concatenate([p.points for p in batch])
    n = len(pts)

    # Cells per axis plus one empty border cell on each side, so every
    # neighbor cell of every point has a key inside its own pattern's block.
    side = batch[0].window.side
    ncells = _cells_per_axis(side, rmax, d, n, groups)
    span = ncells + 2
    nkeys = groups * span**d
    sizes = [len(p) for p in batch]
    width = side / ncells * (1.0 + 2.0**-44 * (ncells + 1))
    keys = np.repeat(np.arange(groups, dtype=np.min_scalar_type(nkeys)), sizes)
    for col in pts.T:
        cell = ((col + side / 2.0) / width).astype(keys.dtype)
        keys = keys * span + np.minimum(cell, ncells - 1) + 1
    order = np.argsort(keys, kind="stable")
    keys = keys[order].astype(np.int64)
    cols = [col[order] for col in pts.T]
    starts = np.zeros(nkeys + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=nkeys), out=starts[1:])

    # One table range per row of three neighbor cells along the last axis,
    # with leading offsets in {-1, 0, 1} on the first d - 1 axes. Rows with a
    # lexicographically negative lead end before the point's own cell: skipped.
    # The point's own row (the all-zero lead, first) starts at the next sorted
    # point; every other row lies wholly after the point's cell, unclipped.
    # With one cell per axis every row but the point's own holds only border
    # cells, so that row alone is read.
    if ncells > 1:
        lead = np.array(list(product((-1, 0, 1), repeat=d - 1))[-scan_rows(d) :], dtype=np.int64)
    else:
        lead = np.zeros((1, d - 1), dtype=np.int64)
    rows = keys[:, None] + lead @ span ** np.arange(d - 1, 0, -1, dtype=np.int64)
    lo = starts[rows - 1]
    lo[:, 0] = np.arange(1, n + 1)
    counts = (starts[rows + 2] - lo).ravel()

    # Candidate t lies in range seg[t] (an empty range holds none), of point
    # seg[t] // len(lead), at offset t - (ends - counts)[seg[t]] in that range.
    ends = np.cumsum(counts)
    total = int(ends[-1]) if n else 0
    seg = np.cumsum(np.bincount(ends[:-1], minlength=total + 1)[:total])
    pos_a = seg // len(lead)
    pos_b = (lo.ravel() - (ends - counts))[seg] + np.arange(total)

    # einsum sums the axes in its own order: a hand-written sum rounds 3-D
    # distances differently in the last bit, and seeded results would move.
    disp = np.empty((len(pos_a), d))
    for k, col in enumerate(cols):
        np.subtract(col[pos_a], col[pos_b], out=disp[:, k])
    dist = np.sqrt(np.einsum("ij,ij->i", disp, disp))
    keep = np.flatnonzero((dist > 0.0) & (dist <= rmax))
    i, j = order[pos_a[keep]], order[pos_b[keep]]
    return PairList(i, j, np.take(disp, keep, axis=0), dist[keep])
