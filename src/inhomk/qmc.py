"""Deterministic low-discrepancy sampling for covariance quadrature.

Plain (unscrambled) Halton points with a fixed prime-per-dimension
assignment. Integration domains are balls and annuli: one coordinate maps to
a volume-uniform radius, the remaining coordinates to a direction (a sign, an
angle, or normalized Box-Muller Gaussians from three dimensions on). Strata are
carved out of the global sequence as index blocks with a fixed stride, so a
larger sample extends a smaller one instead of replacing it.

The radical inverse sums ``digit / base**k`` from the least significant digit
up, one path for every base: the low digits from a per-base table of that same
sum built at import, the high digits once per run of indices that share them,
every run's digits in one broadcast. A draw stacks blocks of consecutive
indices, one per stratum, so the runs follow from each block's start and no
index is divided. The summation order is the loop's, so every point is bitwise
the loop's; in base 2 below 2**53, where every partial sum is exact, a run's
high digits are summed first and added in one pass.
"""

from __future__ import annotations

from math import gamma

import numpy as np

from .geometry import check_integer, check_positive

__all__ = [
    "halton",
    "ball_shell_points",
    "ball_points_weighted",
    "direction_dims",
    "HALTON_DIMS",
    "STRATUM_STRIDE",
]

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73)
HALTON_DIMS = len(_PRIMES)

# Index block reserved per stratum; sample budgets must stay below this.
STRATUM_STRIDE = 2**24

# Entries in the low-digit table of the radical inverse, per base.
_TABLE_SIZE = 2**12
_INT64_MAX = np.iinfo(np.int64).max


def _low_table(base: int) -> np.ndarray:
    # The loop's first L steps on every r < base**L <= _TABLE_SIZE: step k adds the
    # k-th digit to the sums of the lower ones in the loop's order (a short r adds +0.0).
    size, table = 1, np.zeros(1)
    while size * base <= _TABLE_SIZE:
        size *= base
        table = np.add.outer(np.arange(base) / size, table).ravel()
    table.flags.writeable = False
    return table


# Read-only constants of the algorithm, derived from _PRIMES and _TABLE_SIZE alone.
_TABLES = {base: _low_table(base) for base in _PRIMES}


def _radical_inverse(starts: np.ndarray, count: int, base: int, out: np.ndarray) -> None:
    """Radical inverses of the index blocks ``starts[s] + k``, ``k < count``, stacked into ``out``.

    The definition is the digit loop: add ``digit / base**k`` from the least
    significant digit up. Each index splits as ``q * B + r`` with ``B =
    len(table)``, and ``table = _TABLES[base]`` holds the loop's sum over the
    low digits of every ``r``. With ``q0, r0 = divmod(start, B)`` a block holds
    ``ceil((r0 + count) / B)`` runs of equal ``q``; run ``t`` has ``q0 + t``
    and reads the table from ``max(r0, t * B) - t * B`` on. The digits of every
    run's ``q`` come in one broadcast ``work // powers % base`` and are added,
    repeated over the runs, in the loop's order and over its ``denom``
    sequence; in an odd base any other order (high digits first, or a second
    table) moves points by an ulp. In base 2 below 2**53 each partial sum has
    at most 53 significant bits, so every add is exact in any order, and a
    run's high digits are summed first and added in one pass.
    """
    table = _TABLES[base]
    size = len(table)
    q0, r0 = np.divmod(starts, size)
    runs = (r0 + (count - 1)) // size + 1
    block = np.repeat(np.arange(len(starts)), runs)
    t = np.arange(len(block)) - (np.cumsum(runs) - runs)[block]
    c = t * size - r0[block]  # where the run's q * B falls in its block
    lengths = np.minimum(c + size, count) - np.maximum(c, 0)
    # The low parts are in range; "clip" lets take write to out unbuffered.
    low = np.repeat(c + block * count, lengths)
    np.take(table, np.subtract(np.arange(len(out)), low, out=low), out=out, mode="clip")
    work = q0[block] + t
    top, powers, denoms = int(work.max(initial=0)), [], [float(size)]
    while base ** len(powers) <= top:
        powers.append(base ** len(powers))
        denoms.append(denoms[-1] * base)
    terms = work // np.array(powers, dtype=np.int64)[:, None] % base / np.array(denoms[1:])[:, None]
    if base == 2 and (top + 1) * size <= 2**53:
        terms = terms.sum(axis=0, keepdims=True)
    for term in terms:
        out += np.repeat(term, lengths)


def _indices(values) -> np.ndarray:
    # Sequence indices or strata as int64; negative ones would never finish
    # the digit loop (floor division keeps -1 at -1).
    values = np.asarray(values)
    if values.dtype.kind not in "iu" or np.any(values < 0) or np.any(values > _INT64_MAX):
        raise ValueError("Halton indices must be non-negative int64 integers")
    return values.astype(np.int64)


def halton(count: int, dims: int, start=1, dim_offset: int = 0) -> np.ndarray:
    """``count`` Halton points in [0,1)^dims from each sequence index in ``start``.

    ``start`` is one index or an array of them, whose blocks are stacked in
    order. ``dim_offset`` selects which primes are used, so different
    integrals can draw from disjoint coordinate sets of the same sequence.
    Indices must be non-negative integers and every block must fit in int64.
    """
    for value, name in ((count, "count"), (dims, "dims"), (dim_offset, "dim_offset")):
        check_integer(value, name)
        if value < 0:
            raise ValueError(f"{name} must be non-negative")
    if dim_offset + dims > HALTON_DIMS:
        raise ValueError("not enough Halton dimensions configured")
    starts = _indices(start).ravel()
    if count and np.any(starts > _INT64_MAX - (count - 1)):
        raise ValueError("Halton index block runs beyond int64")
    out = np.empty((dims, len(starts) * count))
    for k in range(dims):
        _radical_inverse(starts, count, _PRIMES[dim_offset + k], out[k])
    return out.T


def direction_dims(dim: int) -> int:
    """Halton coordinates per direction: 1 up to the plane, else Box-Muller pairs."""
    return dim + dim % 2 if dim > 2 else 1


def _directions(u: np.ndarray, dim: int) -> np.ndarray:
    """Uniform directions from Halton rows ``u`` in (0, 1) (sequence indices
    are at least 1): a sign, an angle, or the first ``dim`` of the exact iid
    Gaussians that Box-Muller makes of the coordinate pairs, normalized. The
    ``(n, dim)`` array is fresh, so the callers scale it in place by the radii."""
    if dim == 1:
        return np.where(u[:, 0] < 0.5, -1.0, 1.0)[:, None]
    if dim == 2:
        theta = 2.0 * np.pi * u[:, 0]
        out = np.empty((len(u), 2))
        np.cos(theta, out=out[:, 0])
        np.sin(theta, out=out[:, 1])
        return out
    radius = np.sqrt(-2.0 * np.log(u[:, 0::2]))
    angle = 2.0 * np.pi * u[:, 1::2]
    g = np.hstack([radius * np.cos(angle), radius * np.sin(angle)])[:, :dim]
    return g / np.linalg.norm(g, axis=1)[:, None]


def _stratum_draws(count: int, dim: int, strata, dim_offset: int):
    # Radius coordinate and direction of ``count`` points per stratum, stacked. The radius
    # is the lowest prime's coordinate (best equidistributed); copied so ``u`` is freed.
    check_integer(dim, "dim")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if count >= STRATUM_STRIDE:
        raise ValueError("sample budget exceeds the per-stratum index block")
    strata = _indices(strata)
    if np.any(strata > (_INT64_MAX - STRATUM_STRIDE) // STRATUM_STRIDE):
        raise ValueError("stratum index block runs beyond int64")
    starts = strata * STRATUM_STRIDE + 1
    u = halton(count, 1 + direction_dims(dim), start=starts, dim_offset=dim_offset)
    return u[:, 0].copy(), _directions(u[:, 1:], dim)


def _shell_power(radii, dim: int) -> np.ndarray:
    # Python's float power per radius (object arrays): numpy's vectorized
    # power differs from it by an ulp on some radii from dim 2 on (87 of
    # 100,000 at dim 2, about 5,300 at dims 3-6), which would move the points.
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
    r_inner, r_outer = np.asarray(r_inner, dtype=float), np.asarray(r_outer, dtype=float)
    if not np.all((0.0 <= r_inner) & (r_inner <= r_outer) & np.isfinite(r_outer)):
        raise ValueError("shell radii need 0 <= r_inner <= r_outer < inf")
    t, directions = _stratum_draws(count, dim, strata, dim_offset)
    lo, hi = _shell_power(r_inner, dim)[:, None], _shell_power(r_outer, dim)[:, None]
    radii = (lo + t.reshape(len(lo), count) * (hi - lo)) ** (1.0 / dim)
    return np.multiply(radii.reshape(-1, 1), directions, out=directions)


def ball_points_weighted(
    count: int, dim: int, radius: float, strata, dim_offset: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Low-discrepancy points in a ball, uniform in radius, with volume weights.

    Draws ``count`` points per stratum of the array ``strata``, stacked in stratum
    order; the mean of ``f(points) * weights`` over one stratum's block estimates the
    ball integral of ``f``. Uniform radial placement resolves integrands that decay
    away from the origin much better than volume-uniform placement, at no cost for
    flat or vanishing integrands (the covariance blocks' truncated variables decay).
    """
    check_positive(radius, "radius")
    t, directions = _stratum_draws(count, dim, strata, dim_offset)
    radii = radius * t
    surface = dim * np.pi ** (dim / 2.0) / gamma(dim / 2.0 + 1.0) * radii ** (dim - 1)
    return np.multiply(radii[:, None], directions, out=directions), radius * surface
