import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inhomk import asymcov
from inhomk.asymcov import (
    MAX_QUADRATURE_DIM,
    POISSON_DENSITIES,
    ProductDensityModel,
    QuadratureConfig,
    _lag_averages,
    _times_lag_averages,
    compose_lim_cov,
    cov_estimated_constant,
    h_limit_constant,
    h_limit_loglinear,
    loglinear_sigma_blocks,
    poisson_blocks,
    poisson_cov_matrix,
    sigma_blocks_constant,
)
from inhomk.geometry import Window, overlap_volume
from inhomk.intensity import CovariateField
from inhomk.kstat import RadiusGrid, k_poisson
from synthetic_kernels import coupled_g3_densities, synthetic_densities

GRID10 = RadiusGrid.uniform(0.05, 10)
GRID5 = RadiusGrid.uniform(0.05, 5)


def test_poisson_cov_values():
    # radii 0.01, ..., 0.05; entries (0.05, 0.05) and (0.03, 0.05)
    known = poisson_cov_matrix(GRID5, 200.0, "known").matrix
    est = poisson_cov_matrix(GRID5, 200.0, "estimated").matrix
    assert est[4, 4] == pytest.approx(3.92699e-7, rel=1e-5)
    assert known[4, 4] - est[4, 4] == pytest.approx(1.23370e-6, rel=1e-5)
    assert known[4, 4] == pytest.approx(1.62640e-6, rel=1e-5)
    assert est[2, 4] == est[4, 2] == pytest.approx(1.41372e-7, rel=1e-5)
    assert known[2, 4] - est[2, 4] == pytest.approx(4.44132e-7, rel=1e-5)
    # K(r) = 2r on the line and 4 pi r^3 / 3 in space
    line = poisson_cov_matrix(GRID5, 200.0, "known", dim=1).matrix
    assert line[4, 4] == pytest.approx(5e-6 + 2e-4, rel=1e-12)
    space = poisson_cov_matrix(GRID5, 200.0, "estimated", dim=3).matrix
    assert space[4, 4] == pytest.approx(2.61799e-8, rel=1e-5)
    for rho in (0.0, -200.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="finite and positive"):
            poisson_cov_matrix(GRID5, rho, "estimated")
    # 1/rho^2 overflows; rho^2 overflows and the matrix underflows to zero
    for rho in (1e-320, 1e200):
        for mode in ("estimated", "known"):
            with pytest.raises(ValueError, match="not finite and positive"):
                poisson_cov_matrix(GRID5, rho, mode)
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        poisson_cov_matrix(GRID5, 200.0, "estimated", dim=0)


def test_poisson_cov_matrix_matches_blocks():
    for dim in (1, 2, 3):
        for beta in (50.0, 200.0, 1e4):
            for grid in (GRID10, RadiusGrid.uniform(0.2, 7)):
                blocks = poisson_blocks(beta, grid, dim)
                known = poisson_cov_matrix(grid, beta, "known", dim).matrix
                np.testing.assert_array_equal(known, blocks.c)
                # c - 4 K K / beta cancels, hence the loose bound
                np.testing.assert_allclose(
                    poisson_cov_matrix(grid, beta, "estimated", dim).matrix,
                    cov_estimated_constant(blocks).matrix,
                    rtol=1e-10,
                )


def test_blocks_poisson_closed_forms():
    # g == 1: sigma11 = beta exactly, sigma2 = 2 pi r^2, c matches the closed form
    blocks = sigma_blocks_constant(
        POISSON_DENSITIES, 200.0, GRID10, QuadratureConfig(samples=2**14)
    )
    assert blocks.sigma11[0, 0] == pytest.approx(200.0, rel=1e-12)
    np.testing.assert_allclose(
        blocks.sigma2[:, 0], 2 * np.pi * GRID10.values**2, rtol=1e-10
    )
    closed = poisson_cov_matrix(GRID10, 200.0, "known").matrix
    np.testing.assert_allclose(blocks.c, closed, rtol=1e-10)
    np.testing.assert_allclose(blocks.k_curve, np.pi * GRID10.values**2, rtol=1e-12)


def exp_mass(radius, s, dim):
    # int_{|h| <= radius} exp(-|h|/s) dh = d V_d s^d gamma(d, radius/s), with
    # the lower incomplete gamma in closed form for integer d.
    x = np.asarray(radius, float) / s
    tail = np.exp(-x) * sum(x**k / math.factorial(k) for k in range(dim))
    return dim * k_poisson(1.0, dim) * s**dim * math.factorial(dim - 1) * (1 - tail)


@pytest.mark.parametrize("dim", [2, 3])
def test_blocks_synthetic_kernels_within_one_percent(dim):
    # g - 1, g3 - g and g4 - g g all exp(-|.|/s): separable closed forms
    s = 0.5
    beta = 200.0
    r_trunc = 10 * s
    base = synthetic_densities(g_scale=s, g3_scale=s)
    # The pair term's g4 - g g is exp(-|u + z|/s): unlike a radial kernel it
    # depends on the directions of u and z, yet for |u| <= 0.05 its integral
    # over the r_trunc ball of z is the radial one to within 5e-4.
    model = ProductDensityModel(
        base.g,
        base.g3,
        lambda x, y, z: base.g(x) * base.g(y - z) + np.exp(-np.linalg.norm(y, axis=1) / s),
    )
    blocks = sigma_blocks_constant(
        model, beta, GRID5, QuadratureConfig(samples=2**16, r_trunc=r_trunc), dim=dim
    )
    r = GRID5.values
    ball = k_poisson(r, dim)
    # the unbounded variables are integrated over the r_trunc ball
    trunc_mass = exp_mass(r_trunc, s, dim)

    k_true = ball + exp_mass(r, s, dim)
    sigma11_true = beta**2 * trunc_mass + beta
    sigma2_true = beta * ball * trunc_mass + 2 * k_true
    t1_true = np.outer(ball, ball) * trunc_mass
    t2_true = np.outer(k_true, ball) + np.outer(ball, exp_mass(r, s, dim))
    kmin = k_true[np.minimum.outer(np.arange(5), np.arange(5))]
    c_true = t1_true + 4 / beta * t2_true + 2 / beta**2 * kmin

    assert blocks.sigma11[0, 0] == pytest.approx(sigma11_true, rel=0.01)
    np.testing.assert_allclose(blocks.k_curve, k_true, rtol=0.01)
    np.testing.assert_allclose(blocks.sigma2[:, 0], sigma2_true, rtol=0.01)
    np.testing.assert_allclose(blocks.c, c_true, rtol=0.01)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_blocks_couple_the_directions_of_two_variables(dim):
    # g3 - g = exp(-|x - y|^2 / s^2) reads the directions of x and y, so it
    # checks the direction map, which the kernels radial in one variable do
    # not. r_trunc (five grid radii, 0.25) is far beyond r + s = 0.07. Bounds
    # fixed in advance: within the reported gauge and 15% of the closed form;
    # every direction sent to e1 reads 1.3x to 42x the closed form.
    s, beta = 0.02, 200.0
    blocks = sigma_blocks_constant(
        coupled_g3_densities(s), beta, GRID5, QuadratureConfig(samples=2**14), dim=dim
    )
    closed = k_poisson(GRID5.values, dim) * (math.pi * s**2) ** (dim / 2)
    err = np.abs((blocks.sigma2[:, 0] - 2 * blocks.k_curve) / beta - closed)
    assert np.all(err * beta <= blocks.sigma2_err[:, 0])
    assert np.all(err <= 0.15 * closed)


@pytest.mark.parametrize("beta", [1e-300, 1e300, 1e-160, 10**200, np.float64(1e300)])
def test_constant_blocks_refuse_beta_whose_square_leaves_float_range(beta):
    # beta**2 underflows to zero or overflows, or 1/beta**2 overflows: one
    # ValueError naming beta, as poisson_blocks refuses the same values.
    with pytest.raises(ValueError, match="not finite and positive"):
        poisson_blocks(beta, GRID5)
    with pytest.raises(ValueError, match=re.escape(f"got beta = {beta!r}") + "$"):
        sigma_blocks_constant(POISSON_DENSITIES, beta, GRID5, QuadratureConfig(samples=2**10))


def test_blocks_symmetry_and_psd():
    model = synthetic_densities(g_scale=0.3, g3_scale=0.3, g4_scale=0.3)
    blocks = sigma_blocks_constant(
        model, 150.0, GRID5, QuadratureConfig(samples=2**14, r_trunc=3.0)
    )
    np.testing.assert_array_equal(blocks.c, blocks.c.T)
    composed = compose_lim_cov(h_limit_constant(blocks), blocks)
    eigs = np.linalg.eigvalsh(composed.matrix)
    assert eigs.min() >= -1e-6 * composed.matrix.diagonal().max()


def test_quadrature_doubling_within_reported_error():
    s = 0.5
    model = synthetic_densities(g_scale=s, g3_scale=s, g4_scale=s)
    quad_n = QuadratureConfig(samples=2**15, r_trunc=10 * s)
    quad_2n = QuadratureConfig(samples=2**16, r_trunc=10 * s)
    b1 = sigma_blocks_constant(model, 200.0, GRID5, quad_n)
    b2 = sigma_blocks_constant(model, 200.0, GRID5, quad_2n)
    assert np.all(np.abs(b2.sigma11 - b1.sigma11) <= b1.sigma11_err + 1e-18)
    assert np.all(np.abs(b2.sigma2 - b1.sigma2) <= b1.sigma2_err + 1e-18)
    assert np.all(np.abs(b2.c - b1.c) <= b1.c_err + 1e-18)
    # Poisson integrands vanish: estimates identical, zero reported error
    p1 = sigma_blocks_constant(POISSON_DENSITIES, 200.0, GRID5, quad_n)
    p2 = sigma_blocks_constant(POISSON_DENSITIES, 200.0, GRID5, quad_2n)
    assert np.all(np.abs(p2.c - p1.c) <= p1.c_err + 1e-15)


@pytest.mark.parametrize("dim", range(1, MAX_QUADRATURE_DIM + 1))
def test_blocks_poisson_exact_in_every_dimension(dim):
    # the quadrature is dimension-generic; g == 1 stays exact up to the limit
    blocks = sigma_blocks_constant(
        POISSON_DENSITIES, 50.0, GRID5, QuadratureConfig(samples=2**13), dim=dim
    )
    closed = poisson_blocks(50.0, GRID5, dim=dim)
    np.testing.assert_allclose(blocks.k_curve, closed.k_curve, rtol=1e-10)
    np.testing.assert_allclose(blocks.sigma2, closed.sigma2, rtol=1e-10)
    np.testing.assert_allclose(blocks.c, closed.c, rtol=1e-10)
    assert blocks.sigma11[0, 0] == pytest.approx(50.0, rel=1e-12)


def test_quadrature_refuses_dimensions_beyond_the_prime_table(monkeypatch):
    # three variables of 1 + direction_dims(d) coordinates fit 21 primes up
    # to d = 6; any other dim is refused before any point is drawn
    assert MAX_QUADRATURE_DIM == 6
    drawn = []
    monkeypatch.setattr(asymcov, "ball_shell_points", lambda *a, **k: drawn.append(a))
    monkeypatch.setattr(asymcov, "ball_points_weighted", lambda *a, **k: drawn.append(a))
    quad = QuadratureConfig(samples=64)
    for dim in (7, 0, -1):
        with pytest.raises(ValueError, match=f"dimensions 1 to 6, got {dim}"):
            sigma_blocks_constant(POISSON_DENSITIES, 50.0, GRID5, quad, dim=dim)
    field = CovariateField(Window(7, 1.0), np.ones((2,) * 7 + (1,)))
    with pytest.raises(ValueError, match="dimensions 1 to 6, got 7"):
        loglinear_sigma_blocks(field, [np.log(200.0)], POISSON_DENSITIES, GRID5, quad)
    assert drawn == []


def test_blocks_grid_beyond_64_radii():
    # m = 65 needs more than 4096 annulus pairs per stratum region
    grid = RadiusGrid.uniform(0.05, 65)
    blocks = sigma_blocks_constant(
        POISSON_DENSITIES, 200.0, grid, QuadratureConfig(samples=64)
    )
    closed = poisson_blocks(200.0, grid)
    np.testing.assert_allclose(blocks.k_curve, closed.k_curve, rtol=1e-10)
    np.testing.assert_allclose(blocks.sigma2, closed.sigma2, rtol=1e-10)
    assert blocks.sigma11[0, 0] == pytest.approx(200.0, rel=1e-12)
    known = poisson_cov_matrix(grid, 200.0, "known").matrix
    np.testing.assert_allclose(blocks.c, known, rtol=1e-10)


@pytest.mark.parametrize("res", [(4,), (4, 2), (2, 4, 2)])
def test_lag_averages_match_subcell_sum(res):
    # Lags on a 1/8-cell lattice map sub-cells onto sub-cells, so the mean of
    # q_u(u) q_s(u - v)' over the sub-cell midpoints of W and (W + v) is exact.
    sub, side, dim = 8, 2.0, len(res)
    rng = np.random.default_rng(dim)
    field = CovariateField(Window(dim, side), np.zeros(res + (1,)))
    ncells = int(np.prod(res))
    q_u = rng.normal(size=(ncells, 2))
    q_s = rng.normal(size=(ncells, 3))
    fine = sub * np.array(res)
    steps = rng.integers(-fine - 3, fine + 4, size=(40, dim))
    steps[:3] = [-fine + 1, fine, fine + 5]  # near, at and beyond the side
    steps[3] = 0
    got = _lag_averages(q_u, q_s, field, steps * (side / fine))

    subcells = np.indices(fine).reshape(dim, -1).T
    for s, avg in zip(steps, got):
        src = subcells - s
        ok = np.all((src >= 0) & (src < fine), axis=1)
        if not ok.any():
            np.testing.assert_array_equal(avg, 0.0)
            continue
        cu = np.ravel_multi_index(tuple((subcells[ok] // sub).T), res)
        cs = np.ravel_multi_index(tuple((src[ok] // sub).T), res)
        np.testing.assert_allclose(avg, q_u[cu].T @ q_s[cs] / ok.sum(), rtol=1e-12, atol=1e-14)
    assert not np.any(got[1]) and not np.any(got[2])


def per_lag_lag_averages(q_u, q_s, field, lags):
    # Reference: one tensordot over each integer lag's overlap of the raster
    # with its shift, then the same interpolation and overlap division.
    res = np.array(field.resolution)
    t = np.clip(lags * (res / field.window.side), -res, res)
    base = np.floor(t).astype(int)
    frac = t - base
    lo, hi = base.min(axis=0), base.max(axis=0) + 1
    qu = q_u.reshape(field.resolution + (-1,))
    qs = q_s.reshape(field.resolution + (-1,))
    axes = list(range(len(res)))
    table = np.zeros(tuple(hi - lo + 1) + (qu.shape[-1], qs.shape[-1]))
    for pos in np.ndindex(*(hi - lo + 1)):
        k = lo + pos
        if np.any(np.abs(k) >= res):
            continue
        src = tuple(slice(j, None) if j >= 0 else slice(None, j) for j in k)
        dst = tuple(slice(None, r - j) if j >= 0 else slice(-j, None) for j, r in zip(k, res))
        table[pos] = np.tensordot(qu[src], qs[dst], axes=(axes, axes))
    interp = 0.0
    for corner in np.ndindex(*(2,) * len(res)):
        weight = np.prod(np.where(corner, frac, 1.0 - frac), axis=1)
        interp = interp + weight[:, None, None] * table[tuple((base + corner - lo).T)]
    overlap = overlap_volume(field.window, lags)[:, None, None]
    return np.divide(
        interp * field.cell_volume, overlap, out=np.zeros_like(interp), where=overlap > 0
    )


@pytest.mark.parametrize("block", [1, 5000, asymcov._LAG_BLOCK])
@pytest.mark.parametrize("channels", [(1, 1), (2, 3), (3, 3)])
@pytest.mark.parametrize("res", [(7,), (5, 6), (4, 3, 5)])
def test_lag_averages_match_per_lag_tensordot(monkeypatch, res, channels, block):
    # Blocked products over zero-padded windows: the per-lag sums up to their
    # order, for lag boxes that cross +-res cells, one lag per block and more.
    monkeypatch.setattr(asymcov, "_LAG_BLOCK", block)
    dim, side = len(res), 2.0
    rng = np.random.default_rng(len(res) + 10 * channels[1])
    field = CovariateField(Window(dim, side), np.zeros(res + (1,)))
    q_u = rng.normal(size=(math.prod(res), channels[0]))
    q_s = rng.normal(size=(math.prod(res), channels[1]))
    lags = rng.uniform(-1.3 * side, 1.3 * side, size=(300, dim))
    lags[:2] = [-side] * dim, [side * (1 - 1 / max(res))] * dim
    for case in (lags, lags[:1], lags[2:3] / 10):
        got = _lag_averages(q_u, q_s, field, case)
        want = per_lag_lag_averages(q_u, q_s, field, case)
        assert got.shape == want.shape == (len(case),) + channels
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())
        np.testing.assert_array_equal(got == 0.0, want == 0.0)


def test_lag_averages_scratch_stays_within_the_block_budget():
    # A 16^3 raster with a 9^3 lag box: all its windows at once would take
    # 729 * 3 * 16**3 floats (72 MB). Blocked, the scratch is the padded raster
    # (24^3 cells), the table, one block of _LAG_BLOCK floats and a few
    # per-lag arrays of the output's size.
    rng = np.random.default_rng(16)
    field = CovariateField(Window(3, 2.0), np.zeros((16, 16, 16, 1)))
    q = rng.normal(size=(16**3, 3))
    lags = rng.uniform(-0.5, 0.49, size=(2000, 3))
    lags[0] = -0.5
    tracemalloc.start()
    try:
        out = _lag_averages(q, q, field, lags)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    padded, table = 24**3 * 3 * 8, 9**3 * 9 * 8
    assert peak <= padded + table + 8 * asymcov._LAG_BLOCK + 6 * out.nbytes
    assert peak < 2 * 2**20


def counted_lag_averages(monkeypatch):
    # Records the lags of every _lag_averages call the blocks make.
    seen, inner = [], asymcov._lag_averages

    def counted(q_u, q_s, field, lags):
        seen.append(np.array(lags, dtype=float))
        return inner(q_u, q_s, field, lags)

    monkeypatch.setattr(asymcov, "_lag_averages", counted)
    return seen


@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("res", [(7,), (5, 6), (4, 3, 5)])
def test_times_lag_averages_builds_tables_only_for_nonzero_factors(monkeypatch, res, channels):
    # Reference: the full table at every lag times the factor. A compact
    # factor, g - 1 for g = 1 + max(0, 1 - |h|/a), is nonzero at some lags only.
    dim, side, a = len(res), 2.0, 0.4
    rng = np.random.default_rng(40 + dim + channels)
    field = CovariateField(Window(dim, side), np.zeros(res + (1,)))
    q = rng.normal(size=(math.prod(res), channels))
    lags = rng.uniform(-1.2 * side, 1.2 * side, size=(500, dim))
    lags[:50] *= a / (2.0 * side)

    def reference(factor):
        return factor[:, None, None] * _lag_averages(q, q, field, lags)

    seen = counted_lag_averages(monkeypatch)
    got = _times_lag_averages(np.zeros(len(lags)), q, field, lags)
    assert not seen
    assert got.shape == (len(lags), channels, channels) and not got.any()

    compact = np.maximum(0.0, 1.0 - np.linalg.norm(lags, axis=1) / a)
    assert 0 < np.count_nonzero(compact) < len(lags)
    for factor in (1.0 + rng.random(len(lags)), compact):
        assert _times_lag_averages(factor, q, field, lags).tobytes() == reference(factor).tobytes()
    assert len(seen) == 2 and all(np.array_equal(v, lags) for v in seen)

    compact[[60, 70]] = np.nan
    got = _times_lag_averages(compact, q, field, lags)
    assert np.isnan(got[[60, 70]]).all() and not np.isnan(np.delete(got, [60, 70], axis=0)).any()
    assert np.isnan(_times_lag_averages(np.full(3, np.nan), q, field, lags[:3])).all()


def test_loglinear_poisson_sigma11_is_the_sensitivity_without_a_score_table(monkeypatch):
    # g - 1 vanishes for Poisson densities: the score-variance integral adds
    # exact zeros, so only the 1-channel K-block table is built.
    field = CovariateField.from_function(
        Window(2, 2.0),
        lambda p: np.column_stack([np.ones(len(p)), p[:, 0], np.sin(3.0 * p[:, 1])]),
        8,
    )
    seen = counted_lag_averages(monkeypatch)
    ll = loglinear_sigma_blocks(
        field, [np.log(200.0), 0.5, 0.3], POISSON_DENSITIES, GRID5,
        QuadratureConfig(samples=2**10),
    )
    assert ll.sigma11.tobytes() == ll.sensitivity.tobytes()
    assert not ll.sigma11_err.any()
    assert len(seen) == 1


def test_cov_estimated_poisson_reduction():
    blocks = sigma_blocks_constant(
        POISSON_DENSITIES, 200.0, GRID10, QuadratureConfig(samples=2**14)
    )
    est = cov_estimated_constant(blocks)
    closed = poisson_cov_matrix(GRID10, 200.0, "estimated").matrix
    np.testing.assert_allclose(est.matrix, closed, rtol=1e-10)
    # estimating the intensity is beneficial: smaller diagonal than known
    known = poisson_cov_matrix(GRID10, 200.0, "known").matrix
    assert np.all(np.diag(est.matrix) <= np.diag(known))
    np.testing.assert_array_equal(est.matrix, est.matrix.T)


def _estimated_formula(blocks, beta):
    # The estimated-intensity covariance expanded by hand: the decay integral
    # is (sigma2 - 2K) / beta and int(g - 1) is (sigma11 - beta) / beta^2.
    k = blocks.k_curve
    decay2 = blocks.sigma2[:, 0] - 2.0 * k
    gm1 = (blocks.sigma11[0, 0] - beta) / beta**2
    return (
        blocks.c
        - (2.0 / beta) * (np.outer(k, decay2) + np.outer(decay2, k))
        + 4.0 * np.outer(k, k) * (gm1 - 1.0 / beta)
    )


def test_compose_reproduces_cov_estimated_exactly():
    # pure algebra on any constant-model blocks: exact Poisson ones (where the
    # 4 pi^2 s^2 t^2 / beta term cancels) and quadrature ones
    s = 0.02
    synthetic = sigma_blocks_constant(
        synthetic_densities(g_scale=s, g3_scale=s, g4_scale=s), 150.0, GRID5,
        QuadratureConfig(samples=2**10, r_trunc=10 * s),
    )
    for blocks, beta in ((poisson_blocks(200.0, GRID10), 200.0), (synthetic, 150.0)):
        est = cov_estimated_constant(blocks)
        composed = compose_lim_cov(h_limit_constant(blocks), blocks)
        np.testing.assert_array_equal(est.matrix, composed.matrix)
        formula = _estimated_formula(blocks, beta)
        np.testing.assert_allclose(
            est.matrix, formula, rtol=1e-12, atol=1e-12 * np.abs(formula).max()
        )
    closed = poisson_cov_matrix(GRID10, 200.0, "estimated").matrix
    est = cov_estimated_constant(poisson_blocks(200.0, GRID10))
    np.testing.assert_allclose(est.matrix, closed, rtol=1e-10)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_constant_blocks_carry_inverse_beta_as_zbar(dim):
    # -2 K(r) zbar with zbar = [1/beta] is bitwise -2 K(r) / beta, since
    # fl(2/beta) = 2 fl(1/beta)
    assert h_limit_constant is h_limit_loglinear
    quad = QuadratureConfig(samples=2**10, r_trunc=0.2)
    model = synthetic_densities(g_scale=0.02, g3_scale=0.02, g4_scale=0.02)
    for beta in (1e-3, 0.7, 3.0, 150.0, 7e5):
        for blocks in (
            poisson_blocks(beta, GRID5, dim),
            sigma_blocks_constant(model, beta, GRID5, quad, dim),
        ):
            np.testing.assert_array_equal(blocks.zbar, [1.0 / beta])
            np.testing.assert_array_equal(
                h_limit_constant(blocks), (-2.0 / beta) * blocks.k_curve[:, None]
            )
            with pytest.raises(ValueError, match="read-only"):
                blocks.zbar[0] = 1.0
    # 2-D sigma11 and sigma2 and a p-vector zbar are taken as given, not promoted
    closed = poisson_blocks(100.0, GRID5)
    for field, value in (("sigma2", closed.sigma2[:, 0]), ("sigma11", 100.0), ("zbar", [0.1, 0.2])):
        with pytest.raises(ValueError, match="inconsistent block shapes"):
            dataclasses.replace(closed, **{field: value})


def test_compose_refuses_one_dimensional_h():
    blocks = poisson_blocks(100.0, GRID5)
    with pytest.raises(ValueError, match=r"H must be \(5, 1\), got \(5,\)"):
        compose_lim_cov(np.zeros(GRID5.m), blocks)


def test_compose_zero_h_returns_c():
    blocks = poisson_blocks(100.0, GRID5)
    composed = compose_lim_cov(np.zeros((GRID5.m, 1)), blocks)
    np.testing.assert_array_equal(composed.matrix, blocks.c)


def test_compose_symmetric():
    blocks = poisson_blocks(100.0, GRID5)
    h = np.linspace(-1.0, 1.0, GRID5.m)[:, None]
    composed = compose_lim_cov(h, blocks)
    np.testing.assert_allclose(composed.matrix, composed.matrix.T, atol=1e-18)


@pytest.mark.parametrize("model", ["constant", "loglinear"])
def test_compose_is_k_block_of_joint_congruence(model):
    # The joint (parameter, K) limit is A Sigma A' with A = [[I, 0], [H, I]]
    # and Sigma the estimator-coordinate blocks; its K block is c-tilde.
    if model == "constant":
        blocks = poisson_blocks(100.0, GRID5)
    else:
        field = CovariateField.from_function(
            Window(2, 1.0), lambda u: np.column_stack([np.ones(len(u)), u[:, 0]]), 4
        )
        blocks = loglinear_sigma_blocks(
            field, [np.log(200.0), 0.5], POISSON_DENSITIES, GRID5,
            QuadratureConfig(samples=2**10),
        )
    h = np.random.default_rng(5).normal(size=(GRID5.m, blocks.p))
    b = blocks.beta_coords()
    p, m = b.p, GRID5.m
    sigma = np.block([[b.sigma11, b.sigma2.T], [b.sigma2, b.c]])
    a = np.block([[np.eye(p), np.zeros((p, m))], [h, np.eye(m)]])
    joint = a @ sigma @ a.T
    np.testing.assert_allclose(
        compose_lim_cov(h, blocks).matrix, joint[p:, p:], rtol=1e-12, atol=0
    )


def test_loglinear_reduces_to_constant_for_unit_covariate():
    w = Window(2, 1.0)
    s = 0.02
    model = synthetic_densities(g_scale=s, g3_scale=s, g4_scale=s)
    quad = QuadratureConfig(samples=2**12, r_trunc=10 * s)
    field = CovariateField.constant(w, [1.0], resolution=4)
    ll = loglinear_sigma_blocks(field, [np.log(200.0)], model, GRID5, quad)
    cc = sigma_blocks_constant(model, 200.0, GRID5, quad)
    np.testing.assert_allclose(ll.sigma11, cc.sigma11, rtol=1e-10)
    np.testing.assert_allclose(ll.sigma2, cc.sigma2, rtol=1e-10)
    np.testing.assert_allclose(ll.c, cc.c, rtol=1e-10)
    # composed limit covariances agree too (score -> estimator coordinates)
    ct_ll = compose_lim_cov(h_limit_loglinear(ll), ll)
    ct_cc = compose_lim_cov(h_limit_constant(cc), cc)
    np.testing.assert_allclose(ct_ll.matrix, ct_cc.matrix, rtol=1e-9)


def test_loglinear_poisson_sigma11():
    # g == 1, z == 1, beta = log 200: score variance block is the sensitivity e^beta
    w = Window(2, 1.0)
    field = CovariateField.constant(w, [1.0], resolution=2)
    ll = loglinear_sigma_blocks(
        field, [np.log(200.0)], POISSON_DENSITIES, GRID5, QuadratureConfig(samples=2**12)
    )
    assert ll.sigma11[0, 0] == pytest.approx(200.0, rel=0.01)
    assert ll.sensitivity[0, 0] == pytest.approx(200.0, rel=1e-12)


def test_loglinear_hbar_limit():
    w = Window(2, 1.0)
    field = CovariateField.constant(w, [2.5], resolution=2)
    ll = loglinear_sigma_blocks(
        field, [1.0], POISSON_DENSITIES, GRID5, QuadratureConfig(samples=2**12)
    )
    np.testing.assert_allclose(
        h_limit_loglinear(ll), -2.0 * np.outer(ll.k_curve, [2.5]), rtol=1e-12
    )


def test_beta_coords_rejects_near_singular_sensitivity():
    w = Window(2, 1.0)
    # second covariate nearly proportional to the first across cells
    field = CovariateField.from_function(
        w,
        lambda pts: np.stack([np.ones(len(pts)), 1.0 + 1e-8 * pts[:, 0]], axis=1),
        4,
    )
    ll = loglinear_sigma_blocks(
        field, [0.0, 0.0], POISSON_DENSITIES, GRID5, QuadratureConfig(samples=2**10)
    )
    with pytest.raises(ValueError, match=r"nearly singular \(condition number \d"):
        ll.beta_coords()


def test_beta_coords_sandwich():
    w = Window(2, 1.0)
    field = CovariateField.constant(w, [1.0], resolution=2)
    ll = loglinear_sigma_blocks(
        field, [np.log(200.0)], POISSON_DENSITIES, GRID5, QuadratureConfig(samples=2**12)
    )
    bc = ll.beta_coords()
    assert bc.sensitivity is None
    assert bc.sigma11[0, 0] == pytest.approx(ll.sigma11[0, 0] / 200.0**2, rel=1e-9)
    np.testing.assert_allclose(bc.sigma2, ll.sigma2 / 200.0, rtol=1e-12)
    # constant-model blocks pass through unchanged
    blocks = poisson_blocks(100.0, GRID5)
    assert blocks.beta_coords() is blocks
