"""Observation windows, translation edge correction and fixed-radius pair search.

Windows are axis-aligned cubes ``[-L/2, L/2]^d`` centered at the origin. The
translation edge correction weight of a pair with displacement ``h`` is the
reciprocal of the overlap volume ``|W and (W + h)|``, which for a cube
factorizes over the axes. Pair enumeration uses a cell grid with cells no
smaller than the search radius, so only the 3^d neighboring cells of a point
need to be scanned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Window",
    "PointPattern",
    "PairList",
    "overlap_volume",
    "edge_correction",
    "close_pairs",
]


@dataclass(frozen=True)
class Window:
    """Cubic observation window ``[-side/2, side/2]^dim``."""

    dim: int
    side: float

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("window dimension must be >= 1")
        if not self.side > 0:
            raise ValueError("window side must be positive")

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
        if len(pts) > 1 and len(np.unique(pts, axis=0)) != len(pts):
            raise ValueError("duplicate points: pattern must be simple")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class PairList:
    """All ordered point pairs within a search radius.

    Contains ``(i, j)`` iff it contains ``(j, i)``; entries are sorted by
    nondecreasing Euclidean distance. ``disp[k] = points[i[k]] - points[j[k]]``.
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

    @property
    def empty(self) -> bool:
        return len(self.dist) == 0


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


def edge_correction(window: Window, h) -> float | np.ndarray:
    """Translation edge correction weight ``1 / |W and (W + h)|``."""
    vol = overlap_volume(window, h)
    if np.any(np.asarray(vol) <= 0.0):
        raise ValueError("pair displacement exceeds window")
    return 1.0 / vol


def _cell_layout(window: Window, rmax: float) -> tuple[int, float]:
    # Cell side max(rmax, L / floor(L / rmax)) so cells never undercut rmax.
    ncells = max(1, int(np.floor(window.side / rmax)))
    return ncells, window.side / ncells


def _cartesian_join(starts_a, counts_a, starts_b, counts_b):
    """Index arrays of the per-group cartesian product.

    Groups g pair every element of slice ``starts_a[g]:+counts_a[g]`` with
    every element of ``starts_b[g]:+counts_b[g]``; returns positions into the
    underlying sorted array.
    """
    sizes = counts_a * counts_b
    total = int(sizes.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    gid = np.repeat(np.arange(len(sizes)), sizes)
    offsets = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    local = np.arange(total, dtype=np.int64) - np.repeat(offsets, sizes)
    nb = counts_b[gid]
    pos_a = starts_a[gid] + local // nb
    pos_b = starts_b[gid] + local % nb
    return pos_a, pos_b


def close_pairs(pattern: PointPattern, rmax: float) -> PairList:
    """Enumerate all ordered pairs with ``0 < |x_i - x_j| <= rmax``.

    Uses a cell grid so the expected cost is linear in the number of points;
    the result is independent of the cell layout. A radius larger than the
    window simply falls back to fewer cells.
    """
    if not rmax > 0:
        raise ValueError("rmax must be positive")
    pts = pattern.points
    n, d = pts.shape
    if n < 2:
        e = np.empty(0, dtype=np.int64)
        return PairList(e, e, np.empty((0, d)), np.empty(0), float(rmax))

    ncells, cell_side = _cell_layout(pattern.window, rmax)
    axis_ix = ((pts + pattern.window.side / 2.0) / cell_side).astype(np.int64)
    np.clip(axis_ix, 0, ncells - 1, out=axis_ix)
    flat = np.ravel_multi_index(axis_ix.T, (ncells,) * d)

    order = np.argsort(flat, kind="stable")
    sorted_flat = flat[order]
    cells, starts, counts = np.unique(
        sorted_flat, return_index=True, return_counts=True
    )

    # Strides of the flattened cell index along each axis.
    strides = np.array([ncells**k for k in range(d - 1, -1, -1)], dtype=np.int64)
    cell_multi = np.stack(np.unravel_index(cells, (ncells,) * d), axis=1)

    left_parts, right_parts = [], []

    # Same-cell pairs: cartesian product of each cell with itself, keep a < b.
    pos_a, pos_b = _cartesian_join(starts, counts, starts, counts)
    keep = pos_a < pos_b
    left_parts.append(pos_a[keep])
    right_parts.append(pos_b[keep])

    # Cross-cell pairs: visit each unordered cell pair once by using only
    # lexicographically positive offsets among the 3^d neighbors.
    offsets = np.stack(
        np.meshgrid(*([np.array([-1, 0, 1])] * d), indexing="ij"), axis=-1
    ).reshape(-1, d)
    positive = offsets[
        np.array([next((s > 0 for s in off if s != 0), False) for off in offsets])
    ]
    for off in positive:
        nbr_multi = cell_multi + off
        valid = np.all((nbr_multi >= 0) & (nbr_multi < ncells), axis=1)
        if not valid.any():
            continue
        nbr_flat = nbr_multi[valid] @ strides
        hit = np.searchsorted(cells, nbr_flat)
        hit_ok = (hit < len(cells)) & (cells[np.minimum(hit, len(cells) - 1)] == nbr_flat)
        src = np.flatnonzero(valid)[hit_ok]
        dst = hit[hit_ok]
        if len(src) == 0:
            continue
        pos_a, pos_b = _cartesian_join(starts[src], counts[src], starts[dst], counts[dst])
        left_parts.append(pos_a)
        right_parts.append(pos_b)

    a = order[np.concatenate(left_parts)]
    b = order[np.concatenate(right_parts)]
    diff = pts[a] - pts[b]
    dist2 = np.einsum("ij,ij->i", diff, diff)
    keep = (dist2 > 0.0) & (dist2 <= rmax * rmax)
    a, b, diff, dist2 = a[keep], b[keep], diff[keep], dist2[keep]

    # Mirror to ordered pairs, then sort by distance.
    i = np.concatenate([a, b])
    j = np.concatenate([b, a])
    disp = np.concatenate([diff, -diff])
    dist = np.sqrt(np.concatenate([dist2, dist2]))
    by_dist = np.argsort(dist, kind="stable")
    return PairList(i[by_dist], j[by_dist], disp[by_dist], dist[by_dist], float(rmax))
