"""Observation windows, window overlap volumes and fixed-radius pair search.

Windows are axis-aligned cubes ``[-L/2, L/2]^d`` centered at the origin. The
translation edge correction weight of a pair with displacement ``h`` is the
reciprocal of the overlap volume ``|W and (W + h)|``, which for a cube
factorizes over the axes. Pair enumeration sorts the points by the
flat index of a cell grid with cells no smaller than the search radius, and
reads each point's 3^(d-1) rows of neighboring cells as ranges of the sorted
keys. Each unordered pair is returned once, in no particular order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import isfinite

import numpy as np

__all__ = [
    "check_positive",
    "Window",
    "PointPattern",
    "PairList",
    "overlap_volume",
    "close_pairs",
]


def check_positive(value: float, name: str) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is finite and positive.

    The one rule for intensities, window sides, radii and cluster parameters:
    every formula that takes them assumes a positive, bounded value.
    """
    if not (isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


@dataclass(frozen=True)
class Window:
    """Cubic observation window ``[-side/2, side/2]^dim``."""

    dim: int
    side: float

    def __post_init__(self):
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
        # Equal rows are adjacent in lexicographic order (-0.0 equals 0.0).
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
    ``dist[k] = |disp[k]|``.
    """

    i: np.ndarray
    j: np.ndarray
    disp: np.ndarray
    dist: np.ndarray
    rmax: float

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
    overlaps = np.maximum(window.side - np.abs(h), 0.0)
    out = overlaps.prod(axis=-1)
    return float(out) if out.ndim == 0 else out


def close_pairs(pattern: PointPattern, rmax: float) -> PairList:
    """Enumerate each unordered pair with ``0 < |x_i - x_j| <= rmax`` once.

    Points are sorted by the flat index of a cell grid whose cells are no
    smaller than ``rmax``. Cells sharing a point's leading coordinates are
    contiguous in that order, so each point reads its 3^(d-1) neighbor rows
    as ranges of the sorted keys, starting after its own position so that
    every unordered pair is visited once. The set of pairs is independent of
    the cell layout (their order and orientation are not); a radius larger
    than the window simply means fewer cells.
    """
    if not rmax > 0:
        raise ValueError("rmax must be positive")
    pts = pattern.points
    n, d = pts.shape

    # Cell side max(rmax, L / floor(L / rmax)) so cells never undercut rmax;
    # at most 2**(62 // d) cells per axis keep the flat key below 2**62.
    side = pattern.window.side
    ncells = max(1, int(np.floor(min(side / rmax, 2.0 ** (62 // d)))))
    axis_ix = ((pts + side / 2.0) / (side / ncells)).astype(np.int64)
    np.clip(axis_ix, 0, ncells - 1, out=axis_ix)
    strides = ncells ** np.arange(d - 1, -1, -1, dtype=np.int64)
    keys = axis_ix @ strides
    order = np.argsort(keys, kind="stable")
    keys, axis_ix = keys[order], axis_ix[order]

    # One key range per row of neighbor cells: leading offsets in {-1, 0, 1}
    # on the first d - 1 axes, the last axis clipped to the grid.
    lead = np.array(list(product((-1, 0, 1), repeat=d - 1)), dtype=np.int64)
    rows = axis_ix[:, None, :-1] + lead
    inside = np.all((rows >= 0) & (rows < ncells), axis=2)
    base = rows @ strides[:-1]
    last = axis_ix[:, -1:]
    lo = np.searchsorted(keys, base + np.maximum(last - 1, 0), side="left")
    hi = np.searchsorted(keys, base + np.minimum(last + 1, ncells - 1), side="right")
    lo = np.maximum(lo, np.arange(1, n + 1)[:, None])
    counts = np.where(inside, np.maximum(hi - lo, 0), 0).ravel()
    first = np.repeat(lo.ravel() - (np.cumsum(counts) - counts), counts)
    pos_a = np.repeat(np.arange(n).repeat(len(lead)), counts)
    pos_b = first + np.arange(len(first))

    i = order[pos_a]
    j = order[pos_b]
    disp = pts[i] - pts[j]
    dist2 = np.einsum("ij,ij->i", disp, disp)
    keep = (dist2 > 0.0) & (dist2 <= rmax * rmax)
    return PairList(i[keep], j[keep], disp[keep], np.sqrt(dist2[keep]), float(rmax))
