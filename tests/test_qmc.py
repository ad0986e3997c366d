import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inhomk import qmc
from inhomk.asymcov import (
    MAX_QUADRATURE_DIM,
    POISSON_DENSITIES,
    QuadratureConfig,
    loglinear_sigma_blocks,
    sigma_blocks_constant,
)
from inhomk.geometry import Window
from inhomk.intensity import CovariateField
from inhomk.kstat import RadiusGrid
from inhomk.qmc import (
    STRATUM_STRIDE,
    ball_points_weighted,
    ball_shell_points,
    direction_dims,
    halton,
)
from synthetic_kernels import synthetic_densities

PRIMES = qmc._PRIMES


def oracle_radical_inverse(indices, base, out):
    # The defining digit loop: digit / base**k added from the lowest digit up.
    out[:] = 0.0
    denom = 1.0
    work, digit = indices.copy(), np.empty_like(indices)
    while work.any():
        denom *= base
        np.divmod(work, base, out=(work, digit))
        out += digit / denom


def oracle_block_radical_inverse(starts, count, base, out):
    # The digit loop on the index blocks starts[s] + k, k < count, stacked.
    idx = (np.reshape(starts, (-1, 1)) + np.arange(count, dtype=np.int64)).ravel()
    oracle_radical_inverse(idx, base, out)


def oracle_halton(count, dims, starts, dim_offset):
    out = np.empty((dims, np.size(starts) * count))
    for k in range(dims):
        oracle_block_radical_inverse(starts, count, PRIMES[dim_offset + k], out[k])
    return out.T


def table_size(base):
    # base**L, the largest power of base within the radical inverse's table.
    size = base
    while size * base <= qmc._TABLE_SIZE:
        size *= base
    return size


def assert_bitwise_oracle(count, starts, dims=len(PRIMES), dim_offset=0):
    starts = np.asarray(starts, dtype=np.int64)
    got = halton(count, dims, start=starts, dim_offset=dim_offset)
    want = oracle_halton(count, dims, starts, dim_offset)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_halton_bitwise_equals_digit_loop_at_start_and_table_boundaries():
    assert_bitwise_oracle(300, [0])
    for offset in range(len(PRIMES)):
        assert_bitwise_oracle(50, [0, 1, 7], dims=len(PRIMES) - offset, dim_offset=offset)
    for base in PRIMES:
        size = table_size(base)
        # runs cross q -> q + 1 inside a block; q itself has one or more digits
        starts = [size - 3, 2 * size - 1, base * size - 2, 5 * size * size - 4]
        assert_bitwise_oracle(9, starts, dims=1, dim_offset=PRIMES.index(base))


def test_halton_bitwise_equals_digit_loop_on_quadrature_blocks():
    # stratum ids region * 4096 + annulus pair, as the covariance integrals use
    strata = np.array([r * 4096 + a for r in range(7) for a in (0, 1, 2499, 4095)])
    assert_bitwise_oracle(100, strata * STRATUM_STRIDE + 1)


def test_halton_bitwise_equals_digit_loop_near_2_45():
    starts = np.array([2**45 - 5000, 2**45 - 1, 2**45 + 4093], dtype=np.int64)
    assert_bitwise_oracle(5000, starts)


def test_halton_bitwise_equals_digit_loop_on_blocks_longer_than_the_table():
    # each block holds four runs, at least two of them whole table passes
    for k, base in enumerate(PRIMES):
        size = table_size(base)
        assert_bitwise_oracle(3 * size + 5, [1, 7 * size, 2**53 - size], dims=1, dim_offset=k)


def test_halton_bitwise_equals_digit_loop_on_blocks_at_table_phases_0_1_and_last():
    for k, base in enumerate(PRIMES):
        size = table_size(base)
        starts = [q * size + r for q in (0, 1, 5 * base, 2**53 // size) for r in (0, 1, size - 1)]
        for count in (1, 2, size - 1, size, size + 1):
            assert_bitwise_oracle(count, starts, dims=1, dim_offset=k)


def test_halton_bitwise_equals_digit_loop_where_the_high_part_carries():
    # q0 = base**j - 1 wraps to base**j inside the block, carrying through j digits
    for k, base in enumerate(PRIMES):
        size = table_size(base)
        starts = [size * base**3 - 2, size * (base**3 + 1) - 2]
        starts += [size * base**j - 3 for j in range(4, 63) if size * base**j < 2**62][-1:]
        assert_bitwise_oracle(5, starts, dims=1, dim_offset=k)


def assert_base_2_oracle(indices):
    indices = np.asarray(indices, dtype=np.int64)
    got, want = np.empty(len(indices)), np.empty(len(indices))
    qmc._radical_inverse(indices, 1, 2, got)
    oracle_radical_inverse(indices, 2, want)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_base_2_equals_digit_loop_at_2_53():
    # Below 2**53 base 2 sums each run's high digits first, exactly; one index
    # at or above it sends the whole call to the loop's order.
    big = np.iinfo(np.int64).max
    rng = np.random.default_rng(22)
    assert_base_2_oracle(rng.integers(0, 2**53, 20_000))
    # from 2**54 on, summing the high digits first would round once where the loop rounds
    # twice
    for bits in range(53, 63):
        assert_base_2_oracle(rng.integers(2**bits, 2 ** (bits + 1) - 1, 500, endpoint=True))
    for indices in ([], [0], [2**53 - 1], [2**53], [2**53 + 1], [big], [2**53 - 1, 0, 2**52 + 1],
                    [2**53 - 1, 2**53], [2**53 + 1, 5]):
        assert_base_2_oracle(indices)
    for start in (2**53 - 9, 2**53 - 8, 2**53 - 3, 2**53, big):
        assert_bitwise_oracle(8 if start < big else 1, [start])


def test_low_digit_tables_are_read_only_digit_loops():
    assert sorted(qmc._TABLES) == sorted(PRIMES)
    for base, table in qmc._TABLES.items():
        assert not table.flags.writeable and len(table) == table_size(base)
        want = np.empty(len(table))
        oracle_radical_inverse(np.arange(len(table)), base, want)
        np.testing.assert_array_equal(table.view(np.int64), want.view(np.int64))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.one_of(st.integers(0, 2**46), st.integers(2**53 - 4, 2**53 + 1)), min_size=1, max_size=30
    ),
    st.integers(1, 3),
    st.sampled_from(PRIMES).flatmap(
        lambda base: st.tuples(st.just(base), st.integers(1, 2 * table_size(base) + 3))
    ),
)
def test_halton_bitwise_equals_digit_loop_unsorted_repeated_starts(starts, count, long_block):
    # unsorted and repeated starts with short blocks: most runs have length one.
    # Blocks straddle 2**53; the part below it also runs alone, so base 2 takes
    # both its exact sum-first order and the loop's order. In one base, blocks of up to
    # two table lengths hold up to three runs each.
    assert_bitwise_oracle(count, starts + starts[::-1])
    low = [s for s in starts if s + count <= 2**53]
    assert_bitwise_oracle(count, low + low[::-1])
    base, long_count = long_block
    assert_bitwise_oracle(long_count, starts + starts[::-1], dims=1, dim_offset=PRIMES.index(base))


@pytest.mark.filterwarnings("error")
def test_bad_halton_indices_raise():
    big = np.iinfo(np.int64).max
    for start in (-1, [5, -1], 2**70, [0.5], big):
        with pytest.raises(ValueError, match="int64|non-negative"):
            halton(3, 1, start=start)
    halton(1, 1, start=big)
    with pytest.raises(ValueError, match="count must be non-negative"):
        halton(-1, 1)
    with pytest.raises(ValueError, match="non-negative"):
        ball_shell_points(4, 2, [0.0], [1.0], [-1])
    # 2**40 blocks would wrap to stratum 0 in int64
    for strata in ([2**40], [0, 2**39 - 1]):
        with pytest.raises(ValueError, match="beyond int64"):
            ball_shell_points(4, 2, [0.0, 0.0], [1.0, 1.0], strata)
        with pytest.raises(ValueError, match="beyond int64"):
            ball_points_weighted(4, 2, 1.0, strata)
    ball_points_weighted(4, 2, 1.0, [2**39 - 2])


@pytest.mark.parametrize("call, message", [
    (lambda: halton(3, 2, dim_offset=-1), "dim_offset must be non-negative"),
    (lambda: ball_shell_points(4, 2, [0.0], [1.0], [0], dim_offset=-2),
     "dim_offset must be non-negative"),
    (lambda: halton(3, -1), "dims must be non-negative"),
    (lambda: halton(2.5, 1), "count must be an integer"),
    (lambda: halton(True, 1), "count must be an integer"),
    (lambda: halton(3, 1.0), "dims must be an integer"),
    (lambda: halton(3, 1, dim_offset=np.float64(1)), "dim_offset must be an integer"),
    (lambda: ball_shell_points(2.5, 2, [0.0], [1.0], [0]), "count must be an integer"),
    (lambda: ball_shell_points(4, 3, [-0.5], [1.0], [0]), "r_inner <= r_outer"),
    (lambda: ball_shell_points(4, 2, [0.5, 0.75], [1.0, 0.5], [0, 1]), "r_inner <= r_outer"),
    (lambda: ball_shell_points(4, 2, [np.nan], [1.0], [0]), "r_inner <= r_outer"),
    (lambda: ball_shell_points(4, 2, [0.0], [np.inf], [0]), "r_outer < inf"),
    (lambda: ball_points_weighted(4, 2, -1.0, [0]), "radius must be finite and positive"),
    (lambda: ball_points_weighted(4, 2, np.inf, [0]), "radius must be finite and positive"),
    (lambda: ball_points_weighted(4, 2, True, [0]), "radius must be a number"),
    (lambda: ball_points_weighted(4, -1, 1.0, [0]), "dim must be >= 1"),
    (lambda: ball_points_weighted(4, 0, 1.0, [0]), "dim must be >= 1"),
    (lambda: ball_points_weighted(4, True, 1.0, [0]), "dim must be an integer"),
    (lambda: ball_shell_points(4, -1, [0.0], [1.0], [0]), "dim must be >= 1"),
    (lambda: ball_shell_points(4, 0, [0.0], [1.0], [0]), "dim must be >= 1"),
    (lambda: ball_shell_points(4, True, [0.0], [1.0], [0]), "dim must be an integer"),
])
def test_bad_counts_dimensions_and_radii_raise_naming_the_argument(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_edge_counts_dimensions_and_radii_still_draw():
    assert halton(0, 2, start=[3, 5]).shape == (0, 2)
    assert halton(np.int64(3), 0, dim_offset=len(PRIMES)).shape == (3, 0)
    np.testing.assert_array_equal(halton(4, 1, dim_offset=np.int64(2)), halton(4, 3)[:, 2:])
    # unit shells hold bare directions, and a degenerate shell at 0 the origin
    unit = ball_shell_points(4, 2, [1.0], [1.0], [0])
    np.testing.assert_allclose(np.linalg.norm(unit, axis=1), 1.0, rtol=0, atol=1e-15)
    assert not ball_shell_points(4, 2, [0.0], [0.0], [0]).any()


def blocks_arrays(blocks):
    return {
        f.name: getattr(blocks, f.name)
        for f in dataclasses.fields(blocks)
        if f.name != "grid" and getattr(blocks, f.name) is not None
    }


def test_covariance_blocks_equal_with_oracle_radical_inverse(monkeypatch):
    # A moved quadrature point shifts the blocks by an ulp or so, which no
    # closed-form check can see: compare against the digit loop directly.
    grid = RadiusGrid.uniform(0.05, 5)
    field = CovariateField.from_function(
        Window(2, 1.0), lambda u: np.column_stack([np.ones(len(u)), u[:, 0]]), 4
    )
    synthetic = synthetic_densities(g_scale=0.3, g3_scale=0.3, g4_scale=0.3)
    quad = QuadratureConfig(samples=2**10, r_trunc=1.5)

    def all_blocks():
        out = [
            sigma_blocks_constant(model, 200.0, grid, quad, dim)
            for model in (POISSON_DENSITIES, synthetic)
            for dim in (1, 2, 3)
        ]
        out.append(loglinear_sigma_blocks(field, [np.log(200.0), 0.5], synthetic, grid, quad))
        return [blocks_arrays(b) for b in out]

    new = all_blocks()
    monkeypatch.setattr(qmc, "_radical_inverse", oracle_block_radical_inverse)
    old = all_blocks()
    for a, b in zip(new, old):
        assert a.keys() == b.keys() and {"points", "c_err", "sigma2_err"} <= a.keys()
        for name in a:
            np.testing.assert_array_equal(a[name], b[name], err_msg=name)


@st.composite
def stratum_batches(draw):
    dim = draw(st.integers(1, MAX_QUADRATURE_DIM))
    vdims = 1 + direction_dims(dim)
    offset = draw(st.integers(0, len(PRIMES) - vdims))
    strata = np.array(draw(st.lists(st.integers(0, 7 * 4096 - 1), min_size=1, max_size=6)))
    radii = np.array(
        draw(st.lists(
            st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)).map(sorted),
            min_size=len(strata), max_size=len(strata),
        ))
    )
    count = draw(st.integers(1, 40))
    return dim, offset, strata, radii[:, 0], radii[:, 1], count


@settings(max_examples=60, deadline=None)
@given(stratum_batches())
def test_stacked_draws_equal_concatenated_single_strata(batch):
    # Batching must not move any point: seeded covariance blocks rely on it.
    dim, offset, strata, r_in, r_out, count = batch
    shells = ball_shell_points(count, dim, r_in, r_out, strata, dim_offset=offset)
    assert shells.shape == (len(strata) * count, dim)
    single = [
        ball_shell_points(count, dim, r_in[s : s + 1], r_out[s : s + 1], strata[s : s + 1],
                          dim_offset=offset)
        for s in range(len(strata))
    ]
    np.testing.assert_array_equal(shells, np.concatenate(single))

    points, weights = ball_points_weighted(count, dim, 1.5, strata, dim_offset=offset)
    assert points.shape == (len(strata) * count, dim) and weights.shape == (len(points),)
    single = [
        ball_points_weighted(count, dim, 1.5, strata[s : s + 1], dim_offset=offset)
        for s in range(len(strata))
    ]
    np.testing.assert_array_equal(points, np.concatenate([p for p, _ in single]))
    np.testing.assert_array_equal(weights, np.concatenate([w for _, w in single]))


def test_shell_points_stay_in_their_shells():
    strata = np.array([3, 4096 + 7, 5 * 4096])
    r_in, r_out = np.array([0.0, 0.5, 1.0]), np.array([0.5, 1.0, 1.5])
    for dim in (1, 2, 3):
        pts = ball_shell_points(64, dim, r_in, r_out, strata)
        norms = np.linalg.norm(pts, axis=1).reshape(3, 64)
        assert np.all(norms > r_in[:, None] - 1e-12) and np.all(norms <= r_out[:, None] + 1e-12)


def test_directions_are_uniform_in_every_supported_dimension():
    # Unit shells hold bare directions: norm 1, mean 0 and second moment I/d,
    # on the coordinates of each of the pair integrals' three variables.
    for dim in range(3, MAX_QUADRATURE_DIM + 1):
        vdims = 1 + direction_dims(dim)
        for offset in (0, vdims, 2 * vdims):
            pts = ball_shell_points(2**14, dim, [1.0], [1.0], [4096 + 7], dim_offset=offset)
            np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, rtol=0, atol=1e-12)
            assert np.abs(pts.mean(axis=0)).max() < 1e-2
            moments = pts.T @ pts / len(pts)
            assert np.abs(moments - np.eye(dim) / dim).max() < 1e-2


def stacked_ball_points(count, dim, strata, dim_offset, radii_of):
    # The stack-and-multiply formulation: a new array of stacked cos and sin
    # in the plane, then a new product with the radii.
    u = halton(count, 1 + direction_dims(dim), start=np.asarray(strata) * STRATUM_STRIDE + 1,
               dim_offset=dim_offset)
    if dim == 2:
        theta = 2.0 * np.pi * u[:, 1]
        directions = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    else:
        directions = qmc._directions(u[:, 1:], dim)
    return radii_of(u[:, 0].copy()).reshape(-1, 1) * directions


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_in_place_directions_equal_stack_and_multiply_bitwise(dim):
    strata, count, offset = np.array([5, 4096 + 9, 3 * 4096 + 1]), 257, 1 + direction_dims(dim)
    r_in, r_out = np.array([0.0, 0.3, 0.7]), np.array([0.3, 0.7, 1.1])
    lo, hi = qmc._shell_power(r_in, dim)[:, None], qmc._shell_power(r_out, dim)[:, None]
    want = stacked_ball_points(
        count, dim, strata, offset,
        lambda t: (lo + t.reshape(len(lo), count) * (hi - lo)) ** (1.0 / dim),
    )
    got = ball_shell_points(count, dim, r_in, r_out, strata, dim_offset=offset)
    assert got.tobytes() == want.tobytes()
    want = stacked_ball_points(count, dim, strata, 0, lambda t: 1.7 * t)
    got, _ = ball_points_weighted(count, dim, 1.7, strata)
    assert got.tobytes() == want.tobytes()
