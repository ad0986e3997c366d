"""Deterministic low-discrepancy sampling for covariance quadrature.

Plain (unscrambled) Halton points with a fixed prime-per-dimension
assignment. Integration domains are balls and annuli: one coordinate maps to
a volume-uniform radius, the remaining coordinates to a direction. Strata are
carved out of the global sequence as index blocks with a fixed stride, so a
larger sample extends a smaller one instead of replacing it.
"""

from __future__ import annotations

from math import gamma

import numpy as np
from scipy.special import ndtri

__all__ = [
    "halton",
    "ball_shell_points",
    "ball_points_weighted",
    "direction_dims",
    "STRATUM_STRIDE",
]

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)

# Index block reserved per stratum; sample budgets must stay below this.
STRATUM_STRIDE = 2**24


def _radical_inverse(indices: np.ndarray, base: int, out: np.ndarray) -> None:
    out[:] = 0.0
    denom = 1.0
    work, digit = indices.copy(), np.empty_like(indices)
    while work.any():
        denom *= base
        np.divmod(work, base, out=(work, digit))
        out += digit / denom


def halton(count: int, dims: int, start=1, dim_offset: int = 0) -> np.ndarray:
    """``count`` Halton points in [0,1)^dims from each sequence index in ``start``.

    ``start`` is one index or an array of them, whose blocks are stacked in
    order. ``dim_offset`` selects which primes are used, so different
    integrals can draw from disjoint coordinate sets of the same sequence.
    """
    if dim_offset + dims > len(_PRIMES):
        raise ValueError("not enough Halton dimensions configured")
    idx = (np.reshape(start, (-1, 1)) + np.arange(count, dtype=np.int64)).ravel()
    out = np.empty((dims, len(idx)))
    for k in range(dims):
        _radical_inverse(idx, _PRIMES[dim_offset + k], out[k])
    return out.T


def direction_dims(dim: int) -> int:
    """Halton coordinates consumed by one direction draw in ``dim`` dimensions."""
    return dim if dim > 2 else 1


def _directions(u: np.ndarray, dim: int) -> np.ndarray:
    if dim == 1:
        return np.where(u[:, 0] < 0.5, -1.0, 1.0)[:, None]
    if dim == 2:
        theta = 2.0 * np.pi * u[:, 0]
        return np.stack([np.cos(theta), np.sin(theta)], axis=1)
    # Gaussian map then normalize; clip away the endpoints ndtri cannot take.
    g = ndtri(np.clip(u, 1e-12, 1.0 - 1e-12))
    norms = np.linalg.norm(g, axis=1)
    norms[norms == 0.0] = 1.0
    return g / norms[:, None]


def _stratum_draws(count: int, dim: int, strata, dim_offset: int):
    # Radius coordinate and direction of ``count`` points per stratum, stacked.
    # The radius uses the first Halton coordinate (the lowest prime, where the
    # one-dimensional equidistribution is best); copied so ``u`` is freed here.
    if count >= STRATUM_STRIDE:
        raise ValueError("sample budget exceeds the per-stratum index block")
    starts = np.asarray(strata, dtype=np.int64) * STRATUM_STRIDE + 1
    u = halton(count, 1 + direction_dims(dim), start=starts, dim_offset=dim_offset)
    return u[:, 0].copy(), _directions(u[:, 1:], dim)


def _shell_power(radii, dim: int) -> np.ndarray:
    # Python's float power per radius (object arrays): numpy's vectorized
    # power differs from it by an ulp for dim 3, which would move the points.
    return (np.asarray(radii, dtype=float).astype(object) ** dim).astype(float)


def ball_shell_points(
    count: int, dim: int, r_inner, r_outer, strata, dim_offset: int = 0
) -> np.ndarray:
    """Low-discrepancy points, volume-uniform on shells r_inner < |x| <= r_outer.

    ``strata``, ``r_inner`` and ``r_outer`` are aligned arrays: stratum
    ``strata[s]`` selects an index block of the global sequence and draws
    ``count`` points on shell ``s``. The blocks are stacked in stratum order
    into one ``(len(strata) * count, dim)`` array.
    """
    t, directions = _stratum_draws(count, dim, strata, dim_offset)
    lo = _shell_power(r_inner, dim)[:, None]
    hi = _shell_power(r_outer, dim)[:, None]
    radii = (lo + t.reshape(len(lo), count) * (hi - lo)) ** (1.0 / dim)
    return radii.reshape(-1, 1) * directions


def ball_points_weighted(
    count: int, dim: int, radius: float, strata, dim_offset: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Low-discrepancy points in a ball, uniform in radius, with volume weights.

    Draws ``count`` points per stratum of the array ``strata``, stacked in
    stratum order; the mean of ``f(points) * weights`` over one stratum's
    block estimates the ball integral of ``f``. Uniform radial placement
    resolves integrands that decay away from the origin much better than
    volume-uniform placement, at no cost for flat or vanishing integrands (the
    truncated variables of the covariance blocks decay by assumption).
    """
    t, directions = _stratum_draws(count, dim, strata, dim_offset)
    radii = radius * t
    surface = dim * np.pi ** (dim / 2.0) / gamma(dim / 2.0 + 1.0) * radii ** (dim - 1)
    return radii[:, None] * directions, radius * surface
