import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inhomk.asymcov import (
    POISSON_DENSITIES,
    QuadratureConfig,
    _lag_averages,
    compose_lim_cov,
    cov_estimated_constant,
    h_limit_constant,
    h_limit_loglinear,
    loglinear_sigma_blocks,
    poisson_blocks,
    poisson_cov_matrix,
    sigma_blocks_constant,
    synthetic_densities,
)
from inhomk.geometry import Window
from inhomk.intensity import CovariateField
from inhomk.kstat import RadiusGrid

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
                    cov_estimated_constant(blocks, beta).matrix,
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


def test_blocks_synthetic_kernels_within_one_percent():
    # g - 1, g3 - g and g4 - g g all exp(-|.|/s): separable closed forms
    s = 0.5
    beta = 200.0
    model = synthetic_densities(g_scale=s, g3_scale=s, g4_scale=s)
    blocks = sigma_blocks_constant(
        model, beta, GRID5, QuadratureConfig(samples=2**16, r_trunc=10 * s)
    )
    r = GRID5.values
    ball = np.pi * r**2
    exp_mass = 2 * np.pi * s**2
    trunc_mass = lambda rr: 2 * np.pi * s**2 * (1 - np.exp(-rr / s) * (1 + rr / s))

    k_true = ball + trunc_mass(r)
    sigma11_true = beta**2 * exp_mass + beta
    sigma2_true = beta * ball * exp_mass + 2 * k_true
    t1_true = np.outer(ball, ball) * exp_mass
    t2_true = np.outer(k_true, ball) + np.outer(ball, trunc_mass(r))
    kmin = k_true[np.minimum.outer(np.arange(5), np.arange(5))]
    c_true = t1_true + 4 / beta * t2_true + 2 / beta**2 * kmin

    assert blocks.sigma11[0, 0] == pytest.approx(sigma11_true, rel=0.01)
    np.testing.assert_allclose(blocks.k_curve, k_true, rtol=0.01)
    np.testing.assert_allclose(blocks.sigma2[:, 0], sigma2_true, rtol=0.01)
    np.testing.assert_allclose(blocks.c, c_true, rtol=0.01)


def test_blocks_symmetry_and_psd():
    model = synthetic_densities(g_scale=0.3, g3_scale=0.3, g4_scale=0.3)
    blocks = sigma_blocks_constant(
        model, 150.0, GRID5, QuadratureConfig(samples=2**14, r_trunc=3.0)
    )
    np.testing.assert_array_equal(blocks.c, blocks.c.T)
    composed = compose_lim_cov(h_limit_constant(blocks, 150.0), blocks)
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


def test_blocks_poisson_three_dimensions():
    # the quadrature is dimension-generic; g == 1 stays exact in 3d
    blocks = sigma_blocks_constant(
        POISSON_DENSITIES, 50.0, GRID5, QuadratureConfig(samples=2**13), dim=3
    )
    closed = poisson_blocks(50.0, GRID5, dim=3)
    np.testing.assert_allclose(blocks.k_curve, closed.k_curve, rtol=1e-10)
    np.testing.assert_allclose(blocks.sigma2, closed.sigma2, rtol=1e-10)
    np.testing.assert_allclose(blocks.c, closed.c, rtol=1e-10)
    assert blocks.sigma11[0, 0] == pytest.approx(50.0, rel=1e-12)


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


def test_cov_estimated_poisson_reduction():
    blocks = sigma_blocks_constant(
        POISSON_DENSITIES, 200.0, GRID10, QuadratureConfig(samples=2**14)
    )
    est = cov_estimated_constant(blocks, 200.0)
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
        est = cov_estimated_constant(blocks, beta)
        composed = compose_lim_cov(h_limit_constant(blocks, beta), blocks)
        np.testing.assert_array_equal(est.matrix, composed.matrix)
        formula = _estimated_formula(blocks, beta)
        np.testing.assert_allclose(
            est.matrix, formula, rtol=1e-12, atol=1e-12 * np.abs(formula).max()
        )
    closed = poisson_cov_matrix(GRID10, 200.0, "estimated").matrix
    est = cov_estimated_constant(poisson_blocks(200.0, GRID10), 200.0)
    np.testing.assert_allclose(est.matrix, closed, rtol=1e-10)


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
    ct_cc = compose_lim_cov(h_limit_constant(cc, 200.0), cc)
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
