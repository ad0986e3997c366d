import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inhomk import qmc
from inhomk.asymcov import (
    POISSON_DENSITIES,
    QuadratureConfig,
    loglinear_sigma_blocks,
    sigma_blocks_constant,
    synthetic_densities,
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


def oracle_halton(count, dims, starts, dim_offset):
    idx = (np.reshape(starts, (-1, 1)) + np.arange(count, dtype=np.int64)).ravel()
    out = np.empty((dims, len(idx)))
    for k in range(dims):
        oracle_radical_inverse(idx, PRIMES[dim_offset + k], out[k])
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


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 2**46), min_size=1, max_size=30), st.integers(1, 3))
def test_halton_bitwise_equals_digit_loop_unsorted_repeated_starts(starts, count):
    # unsorted and repeated starts with short blocks: most runs have length one
    assert_bitwise_oracle(count, starts + starts[::-1])


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
    monkeypatch.setattr(qmc, "_radical_inverse", oracle_radical_inverse)
    old = all_blocks()
    for a, b in zip(new, old):
        assert a.keys() == b.keys() and {"points", "c_err", "sigma2_err"} <= a.keys()
        for name in a:
            np.testing.assert_array_equal(a[name], b[name], err_msg=name)


@st.composite
def stratum_batches(draw):
    dim = draw(st.integers(1, 3))
    vdims = 1 + direction_dims(dim)
    offset = draw(st.integers(0, 20 - vdims))
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
