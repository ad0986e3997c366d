"""Deterministic low-discrepancy sampling for covariance quadrature.

Plain (unscrambled) Halton points with a fixed prime-per-dimension
assignment. Integration domains are balls and annuli: one coordinate maps to
a volume-uniform radius, the remaining coordinates to a direction (a sign, an
angle, or normalized Box-Muller Gaussians from three dimensions on). Strata are
carved out of the global sequence as index blocks with a fixed stride, so a
larger sample extends a smaller one instead of replacing it.

The radical inverse sums ``digit / base**k`` from the least significant digit
up. It reads the low digits of every index from a small table of that same
sum, built one digit level at a time by an outer sum, and adds the high
digits once per run of indices that share them, taking every run's digits in
one broadcast, so a block of consecutive indices costs one table lookup per
point instead of one integer division per point and digit. In odd bases the
summation order is the digit loop's own, so every point is bitwise the same
as the loop's. In base 2 below 2**53 every partial sum is exact in any order,
so the radical inverse is the index's bit reversal, computed without a digit
loop.
"""

from __future__ import annotations

from math import gamma

import numpy as np

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
# Within-byte bit swaps of the base-2 kernel: (shift, mask of the low halves).
_BIT_SWAPS = tuple(
    (np.uint64(shift), np.uint64(mask))
    for shift, mask in ((1, 0x5555555555555555), (2, 0x3333333333333333), (4, 0x0F0F0F0F0F0F0F0F))
)


def _radical_inverse(indices: np.ndarray, base: int, out: np.ndarray) -> None:
    """Radical inverses of non-negative indices into ``out``, at one lookup per point.

    The definition is the digit loop: add ``digit / base**k`` from the least
    significant digit up. Each index splits as ``q * B + r`` with
    ``B = base**L`` the largest power of ``base`` within ``_TABLE_SIZE``.
    ``table[r]`` holds the loop's first ``L`` steps on ``r``: step ``k = 1..L``
    of the recursion ``table = add.outer(arange(base) / base**k, table)`` adds
    the ``k``-th digit to the sums of the lower ones, the loop's adds in the
    loop's order (a shorter ``r`` only adds ``+0.0``). The digits of ``q``
    come next, over the loop's own ``denom`` sequence. One broadcast
    ``work // powers % base`` takes them for every run of equal consecutive
    ``q``, and each digit is repeated over the runs and added in the loop's
    order, so blocks of consecutive indices pay the integer divisions per run,
    not per point. In an odd base, summing in a different order (high digits
    first, or a second table) would move points by an ulp.

    In base 2 below 2**53 each partial sum has at most 53 significant bits,
    so every add is exact and the sum is the index's 64-bit bit reversal
    times 2**-64, exact in float64 too.
    """
    if base == 2 and indices.max(initial=0) < 2**53:
        rev = indices.astype(np.uint64)
        low = out.view(np.uint64)  # scratch until the product overwrites it
        for shift, mask in _BIT_SWAPS:
            np.right_shift(rev, shift, out=low)
            low &= mask
            rev &= mask
            rev <<= shift
            rev |= low
        rev.byteswap(inplace=True)  # then the byte order, on either endianness
        np.multiply(rev, 2.0**-64, out=out)
        return
    size, table = 1, np.zeros(1)
    while size * base <= _TABLE_SIZE:
        size *= base
        table = np.add.outer(np.arange(base) / size, table).ravel()
    high = indices // size
    # The low parts are in range; "clip" lets take write to out unbuffered.
    np.take(table, indices - high * size, out=out, mode="clip")
    first = np.empty(len(high), dtype=bool)
    first[:1] = True
    np.not_equal(high[1:], high[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    lengths = np.diff(starts, append=len(high))
    work = high[starts]
    top, powers, denoms = int(work.max(initial=0)), [], [float(size)]
    while base ** len(powers) <= top:
        powers.append(base ** len(powers))
        denoms.append(denoms[-1] * base)
    terms = work // np.array(powers, dtype=np.int64)[:, None] % base / np.array(denoms[1:])[:, None]
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
    if dim_offset + dims > HALTON_DIMS:
        raise ValueError("not enough Halton dimensions configured")
    if count < 0:
        raise ValueError("Halton point count must be non-negative")
    starts = _indices(start).reshape(-1, 1)
    if count and np.any(starts > _INT64_MAX - (count - 1)):
        raise ValueError("Halton index block runs beyond int64")
    idx = (starts + np.arange(count, dtype=np.int64)).ravel()
    out = np.empty((dims, len(idx)))
    for k in range(dims):
        _radical_inverse(idx, _PRIMES[dim_offset + k], out[k])
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
    # Radius coordinate and direction of ``count`` points per stratum, stacked.
    # The radius uses the first Halton coordinate (the lowest prime, where the
    # one-dimensional equidistribution is best); copied so ``u`` is freed here.
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
    t, directions = _stratum_draws(count, dim, strata, dim_offset)
    lo = _shell_power(r_inner, dim)[:, None]
    hi = _shell_power(r_outer, dim)[:, None]
    radii = (lo + t.reshape(len(lo), count) * (hi - lo)) ** (1.0 / dim)
    return np.multiply(radii.reshape(-1, 1), directions, out=directions)


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
    return np.multiply(radii[:, None], directions, out=directions), radius * surface
