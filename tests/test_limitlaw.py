import numpy as np
import pytest

from inhomk.asymcov import poisson_cov_matrix
from inhomk.kstat import RadiusGrid
from inhomk.limitlaw import (
    SupSample,
    cholesky_with_jitter,
    critical_value,
    p_value,
    simulate_sup,
)

GRID = RadiusGrid.uniform(0.05, 20)


def test_half_normal_mean():
    # m = 1, unit variance: sup law is |N(0,1)|
    sample = simulate_sup(np.array([[1.0]]), 10_000, seed=5)
    target = np.sqrt(2 / np.pi)
    se = np.sqrt(1 - 2 / np.pi) / 100.0
    assert abs(sample.draws.mean() - target) < 3 * se


def test_half_normal_quantile():
    sample = simulate_sup(np.array([[1.0]]), 100_000, seed=5)
    assert abs(critical_value(sample, 0.05) - 1.95996) < 0.02


def test_scaling_by_power_of_two_is_exact():
    cov = poisson_cov_matrix(GRID, 200.0, "estimated").matrix
    a = simulate_sup(cov, 1000, seed=9)
    b = simulate_sup(4.0 * cov, 1000, seed=9)
    np.testing.assert_array_equal(b.draws, 2.0 * a.draws)


def test_rho_scaling():
    # doubling the intensity exactly halves every draw for the same seed
    a = simulate_sup(poisson_cov_matrix(GRID, 200.0, "estimated"), 1000, seed=9)
    b = simulate_sup(poisson_cov_matrix(GRID, 400.0, "estimated"), 1000, seed=9)
    np.testing.assert_allclose(a.draws, 2.0 * b.draws, rtol=1e-12)


def test_general_scale_factor():
    cov = poisson_cov_matrix(GRID, 200.0, "known").matrix
    a = simulate_sup(cov, 500, seed=13)
    b = simulate_sup(9.0 * cov, 500, seed=13)
    np.testing.assert_allclose(b.draws, 3.0 * a.draws, rtol=1e-12)


def test_determinism():
    cov = poisson_cov_matrix(GRID, 200.0, "known").matrix
    a = simulate_sup(cov, 500, seed=21)
    b = simulate_sup(cov, 500, seed=21)
    np.testing.assert_array_equal(a.draws, b.draws)
    c = simulate_sup(cov, 500, seed=22)
    assert not np.array_equal(a.draws, c.draws)


def test_accepts_limit_covariance_object():
    lc = poisson_cov_matrix(GRID, 200.0, "estimated")
    a = simulate_sup(lc, 200, seed=2)
    b = simulate_sup(lc.matrix, 200, seed=2)
    np.testing.assert_array_equal(a.draws, b.draws)


def test_critical_value_order_statistic_rule():
    sample = SupSample(np.arange(1.0, 101.0))
    assert critical_value(sample, 0.05) == 95.0
    assert critical_value(sample, 0.5) == 50.0
    with pytest.raises(ValueError):
        critical_value(sample, 0.0)
    with pytest.raises(ValueError):
        critical_value(sample, 1.0)


def test_critical_value_monotone_in_level():
    sample = simulate_sup(np.array([[1.0]]), 2000, seed=3)
    qs = [critical_value(sample, a) for a in (0.2, 0.1, 0.05, 0.01)]
    assert qs == sorted(qs)


def test_p_value_bookkeeping():
    sample = SupSample(np.arange(1.0, 101.0))
    assert p_value(sample, 0.5) == 1.0
    assert p_value(sample, 1000.0) == pytest.approx(1 / 101)
    # statistic exactly at the critical value: p <= alpha + 2/(M+1)
    alpha = 0.05
    q = critical_value(sample, alpha)
    assert p_value(sample, q) <= alpha + 2 / 101


def test_sample_size_floor():
    with pytest.raises(ValueError):
        simulate_sup(np.eye(2), 50, seed=0)
    with pytest.raises(ValueError):
        SupSample(np.arange(10.0))


def test_jitter_handles_rank_deficiency():
    # singular but PSD: all-ones covariance (perfectly correlated components)
    cov = np.ones((4, 4))
    sample = simulate_sup(cov, 200, seed=6)
    assert np.all(np.isfinite(sample.draws))


def test_not_psd_rejected():
    with pytest.raises(ValueError, match="not numerically PSD"):
        cholesky_with_jitter(np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(ValueError, match="symmetric"):
        cholesky_with_jitter(np.array([[1.0, 0.5], [0.0, 1.0]]))
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            cholesky_with_jitter(np.diag([1.0, bad]))
