"""Acceptance suite: one test per criterion, printed pass/fail lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Monte Carlo checks use fixed seeds (first seed tried, not searched);
tolerances are stated inline. The shared Poisson and Matern studies are
computed once per session.
"""

import numpy as np
import pytest

from inhomk.asymcov import (
    POISSON_DENSITIES,
    QuadratureConfig,
    compose_lim_cov,
    cov_estimated_constant,
    h_limit_constant,
    h_limit_loglinear,
    loglinear_sigma_blocks,
    poisson_blocks,
    poisson_cov_matrix,
    sigma_blocks_constant,
)
from inhomk.geometry import PointPattern, Window, close_pairs
from inhomk.intensity import (
    ConstantIntensity,
    CovariateField,
    LogLinearIntensity,
    cl_score,
    fit_loglinear,
)
from inhomk.kstat import RadiusGrid, h_matrix, k_hat, taylor_residual
from inhomk.seeds import stream
from inhomk.simulate import MaternParams, simulate_poisson, simulate_poisson_inhom
from inhomk.study import StudyConfig, empirical_cov_oracle, rejection_study

RHO = 200.0
R = 0.05
ALPHA = 0.05


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"acceptance {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def poisson_study():
    config = StudyConfig(
        process="poisson",
        rho=RHO,
        sides=(1.0, 2.0),
        modes=("estimated", "known"),
        replicates=2000,
        alpha=ALPHA,
        R=R,
        sample_size=10_000,
        seed=2101,
    )
    return rejection_study(config)


@pytest.fixture(scope="module")
def matern_study():
    config = StudyConfig(
        process="matern",
        matern=MaternParams(25.0, 8.0, 0.2),
        sides=(1.0, 2.0),
        modes=("estimated", "known"),
        replicates=500,
        alpha=ALPHA,
        R=R,
        sample_size=10_000,
        seed=2103,
    )
    return rejection_study(config)


def test_criterion_1_table1_poisson_level(poisson_study):
    # sides 1 and 2, estimated intensity: within 0.015 of 0.053; < 5 min/cell
    for side in (1.0, 2.0):
        cell = poisson_study.cell(side, "estimated")
        ok = abs(cell.rejection_rate - 0.053) <= 0.015 and cell.wall_time < 300.0
        _report(
            "criterion 1",
            ok,
            f"side {side:g}: rate {cell.rejection_rate:.4f} vs 0.053 +- 0.015, "
            f"{cell.wall_time:.1f}s",
        )
        assert abs(cell.rejection_rate - 0.053) <= 0.015
        assert cell.wall_time < 300.0


def test_criterion_2_table1_known_intensity_degradation(poisson_study):
    for side in (1.0, 2.0):
        cell = poisson_study.cell(side, "known")
        _report(
            "criterion 2",
            cell.rejection_rate <= 0.01,
            f"side {side:g}: rate {cell.rejection_rate:.4f} <= 0.01 (reference 0.0015/0.0011)",
        )
        assert cell.rejection_rate <= 0.01
        # paired comparison on the same replicates: mistaking the estimate for
        # the truth can only suppress rejections
        assert cell.rejection_rate < poisson_study.cell(side, "estimated").rejection_rate


def test_criterion_3_table1_matern_power(matern_study):
    side1_known = matern_study.cell(1.0, "known").rejection_rate
    side2_est = matern_study.cell(2.0, "estimated").rejection_rate
    side1_est = matern_study.cell(1.0, "estimated").rejection_rate

    ok_known = abs(side1_known - 0.31) <= 0.05
    _report("criterion 3", ok_known, f"side 1 known: {side1_known:.3f} vs 0.31 +- 0.05")
    assert ok_known

    ok_side2 = side2_est >= 0.95
    _report("criterion 3", ok_side2, f"side 2 estimated: {side2_est:.3f} >= 0.95")
    assert ok_side2

    # Known discrepancy: the faithful protocol yields ~0.71 here, not the
    # reference value 0.63; every other cell reproduces and the simulator is
    # certified against the analytic cluster K, so the bound is asserted as
    # stated and left red rather than loosened.
    ok_side1 = abs(side1_est - 0.63) <= 0.05
    _report("criterion 3", ok_side1, f"side 1 estimated: {side1_est:.3f} vs 0.63 +- 0.05")
    assert ok_side1


def test_criterion_4_closed_form_consistency():
    grid = RadiusGrid.uniform(R, 10)
    blocks = sigma_blocks_constant(
        POISSON_DENSITIES, RHO, grid, QuadratureConfig(samples=2**14)
    )
    known_closed = poisson_cov_matrix(grid, RHO, "known").matrix
    est_closed = poisson_cov_matrix(grid, RHO, "estimated").matrix
    est = cov_estimated_constant(blocks)
    err_known = float(np.abs((blocks.c - known_closed) / known_closed).max())
    err_est = float(np.abs((est.matrix - est_closed) / est_closed).max())
    ok = err_known <= 0.01 and err_est <= 0.01
    _report(
        "criterion 4", ok,
        f"max rel err known {err_known:.2e}, estimated {err_est:.2e} <= 1%",
    )
    assert err_known <= 0.01
    assert err_est <= 0.01


def test_criterion_5_composition_identity():
    grid = RadiusGrid.uniform(R, 10)
    blocks = poisson_blocks(RHO, grid)
    composed = compose_lim_cov(h_limit_constant(blocks), blocks)
    est_closed = poisson_cov_matrix(grid, RHO, "estimated").matrix
    err = float(np.abs((composed.matrix - est_closed) / est_closed).max())
    _report("criterion 5", err <= 1e-10, f"max rel err {err:.2e} <= 1e-10")
    assert err <= 1e-10


def test_criterion_6_unbiasedness():
    window = Window(2, 2.0)
    grid = RadiusGrid.uniform(R, 2)
    model = ConstantIntensity(RHO)
    vals = np.empty(10_000)
    for rep in range(10_000):
        pat = simulate_poisson(RHO, window, stream(606, rep))
        vals[rep] = k_hat(pat, model, grid).values[-1]
    target = np.pi * R**2
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    dev = abs(vals.mean() - target)
    _report(
        "criterion 6", dev < 3 * se,
        f"MC mean {vals.mean():.6e} vs {target:.6e}, |dev|/SE = {dev / se:.2f} < 3",
    )
    assert dev < 3 * se


def test_criterion_7_covariance_oracle():
    config = StudyConfig(process="poisson", rho=RHO, sides=(4.0,), R=R, grid_size=2,
                         replicates=10_000, seed=2024)
    cov = empirical_cov_oracle(config)[4.0]
    known, est = cov["known"][-1, -1], cov["estimated"][-1, -1]
    ok = (
        abs(known / 1.62640e-6 - 1) <= 0.20
        and abs(est / 3.92699e-7 - 1) <= 0.20
        and est < known
    )
    _report(
        "criterion 7", ok,
        f"n Var known {known:.3e} vs 1.62640e-6, estimated {est:.3e} vs 3.92699e-7, "
        f"estimated < known: {est < known}",
    )
    assert abs(known / 1.62640e-6 - 1) <= 0.20
    assert abs(est / 3.92699e-7 - 1) <= 0.20
    assert est < known


def test_criterion_8_h_identity():
    grid = RadiusGrid.uniform(R, 25)
    worst = 0.0
    for seed in range(10):
        pat = simulate_poisson(RHO, Window(2, 1.0), stream(808, seed))
        k = k_hat(pat, ConstantIntensity(RHO), grid)
        h = h_matrix(pat, ConstantIntensity(RHO), grid)
        target = -(2.0 / RHO) * k.values
        nz = target != 0
        if nz.any():
            worst = max(
                worst,
                float(np.abs((h.values[nz, 0] - target[nz]) / target[nz]).max()),
            )
        assert np.all(h.values[~nz, 0] == 0.0)
    _report("criterion 8", worst <= 1e-14, f"max rel dev {worst:.2e} <= 1e-14")
    assert worst <= 1e-14


def test_criterion_9_variance_rate_and_taylor_order():
    grid = RadiusGrid.uniform(R, 2)

    def h_variance(side, seed):
        window = Window(2, side)
        vals = np.empty(1200)
        for rep in range(1200):
            pat = simulate_poisson(RHO, window, stream(seed, rep))
            vals[rep] = h_matrix(pat, ConstantIntensity(RHO), grid).values[-1, 0]
        return vals.var(ddof=1)

    ratio = h_variance(2.0, 71) / h_variance(4.0, 72)
    ok_rate = 2.0 <= ratio <= 8.0
    _report("criterion 9", ok_rate, f"Var ratio n=4 vs n=16: {ratio:.2f} in [2, 8]")
    assert ok_rate

    pat = simulate_poisson(300.0, Window(2, 1.0), stream(73, 0))
    grid10 = RadiusGrid.uniform(R, 10)

    def max_resid(eps):
        res = taylor_residual(pat, ConstantIntensity, 300.0, 300.0 * (1 + eps), grid10)
        return np.abs(res.values).max()

    ratio2 = max_resid(1e-3) / max_resid(5e-4)
    ok_taylor = abs(ratio2 - 4.0) <= 0.5
    _report("criterion 9", ok_taylor, f"halving eps quarters residual: ratio {ratio2:.3f}")
    assert ok_taylor


def test_criterion_10_loglinear_recovery():
    window = Window(2, 4.0)
    field = CovariateField.from_function(
        window,
        lambda pts: np.stack([np.ones(len(pts)), pts[:, 0]], axis=1),
        64,
    )
    beta_star = np.array([5.0, 1.0])
    truth = LogLinearIntensity(beta_star, field)
    rho_max = float(truth.cell_values().max())
    betas = np.empty((500, 2))
    for rep in range(500):
        pat = simulate_poisson_inhom(truth, rho_max, window, stream(909, rep))
        fit = fit_loglinear(pat, field)
        assert fit.converged
        model = LogLinearIntensity(fit.beta_hat, field)
        assert np.abs(cl_score(pat, model)).max() <= 1e-8 * window.volume
        betas[rep] = fit.beta_hat
    mean = betas.mean(axis=0)
    se = betas.std(axis=0, ddof=1) / np.sqrt(len(betas))
    z = np.abs(mean - beta_star) / se
    ok = bool(np.all(z < 3.0))
    _report(
        "criterion 10", ok,
        f"mean beta ({mean[0]:.4f}, {mean[1]:.4f}) vs (5, 1), |z| = ({z[0]:.2f}, {z[1]:.2f}) < 3",
    )
    assert np.all(z < 3.0)


def test_criterion_11_pair_search_oracle():
    rng = np.random.default_rng(1111)
    for trial in range(100):
        side = float(rng.uniform(0.3, 3.0))
        n = int(rng.integers(2, 300))
        rmax = float(rng.uniform(0.02, 1.1) * side)
        pts = rng.uniform(-side / 2, side / 2, (n, 2))
        pattern = PointPattern(Window(2, side), pts)
        pairs = close_pairs(pattern, rmax)
        # each unordered pair is stored once; compare its mirror
        stored = list(zip(pairs.i.tolist(), pairs.j.tolist()))
        assert len({frozenset(pair) for pair in stored}) == len(stored), (
            f"trial {trial}: an unordered pair repeats"
        )
        got = set(stored) | {(j, i) for i, j in stored}
        diff = pts[:, None, :] - pts[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        mask = (d2 > 0.0) & (d2 <= rmax * rmax)
        np.fill_diagonal(mask, False)
        want = {(int(i), int(j)) for i, j in zip(*np.nonzero(mask))}
        assert got == want, f"trial {trial}: cell grid disagrees with the scan"
    _report("criterion 11", True, "100 random instances, exact set equality")


def test_criterion_12_loglinear_oracle():
    # The paper's headline check: |W| Var of the plug-in K-hat at a fitted
    # log-linear intensity against c-tilde, and of K-hat at the true intensity
    # against c, at grid entry [-1, -1] over 4,000 replicates (seeds 90000+).
    # Bounds fixed in advance: 20% on both ratios, as in criterion 7; the
    # plug-in variance below the true-intensity one; c over twice the plug-in.
    window = Window(2, 2.0)
    field = CovariateField.from_function(
        window,
        lambda p: np.column_stack([np.ones(len(p)), p[:, 0], np.sin(3.0 * p[:, 1])]),
        32,
    )
    beta_star = np.array([np.log(200.0), 0.5, 0.3])
    truth = LogLinearIntensity(beta_star, field)
    grid = RadiusGrid.uniform(R, 2)
    b = loglinear_sigma_blocks(
        field, beta_star, POISSON_DENSITIES, grid, QuadratureConfig(samples=2**16)
    )
    c_tilde = compose_lim_cov(h_limit_loglinear(b), b).matrix[-1, -1]
    c = b.c[-1, -1]
    rho_max = truth.cell_values().max()
    plug_in, true_k = np.empty(4000), np.empty(4000)
    for i in range(4000):
        pat = simulate_poisson_inhom(truth, rho_max, window, 90000 + i)
        fit = fit_loglinear(pat, field)
        assert fit.converged, f"replicate {i}: the fit did not converge"
        plug_in[i] = k_hat(pat, LogLinearIntensity(fit.beta_hat, field), grid).values[-1]
        true_k[i] = k_hat(pat, truth, grid).values[-1]
    var_plug = window.volume * plug_in.var(ddof=1)
    var_true = window.volume * true_k.var(ddof=1)
    ratio_plug, ratio_true = var_plug / c_tilde, var_true / c
    ok = (
        abs(ratio_plug - 1) <= 0.20
        and abs(ratio_true - 1) <= 0.20
        and var_plug < var_true
        and c / var_plug > 2
    )
    _report(
        "criterion 12", ok,
        f"|W| Var plug-in {var_plug:.3e} vs c~ {c_tilde:.3e} (ratio {ratio_plug:.3f}), "
        f"true intensity {var_true:.3e} vs c {c:.3e} (ratio {ratio_true:.3f}), "
        f"c / plug-in {c / var_plug:.2f} > 2",
    )
    assert abs(ratio_plug - 1) <= 0.20
    assert abs(ratio_true - 1) <= 0.20
    assert var_plug < var_true
    assert c / var_plug > 2
