import numpy as np
import pytest

from inhomk.asymcov import poisson_cov_matrix
from inhomk.gof import GofConfig
from inhomk.kstat import RadiusGrid
from inhomk.limitlaw import (
    check_sample_size,
    cholesky_with_jitter,
    critical_value,
    gaussian_paths,
    p_value,
    simulate_sup,
)
from inhomk.study import StudyConfig

GRID = RadiusGrid.uniform(0.05, 20)


def test_half_normal_mean():
    # m = 1, unit variance: sup law is |N(0,1)|
    draws = simulate_sup(np.array([[1.0]]), 10_000, seed=5)
    target = np.sqrt(2 / np.pi)
    se = np.sqrt(1 - 2 / np.pi) / 100.0
    assert abs(draws.mean() - target) < 3 * se


def test_half_normal_quantile():
    draws = simulate_sup(np.array([[1.0]]), 100_000, seed=5)
    assert abs(critical_value(draws, 0.05) - 1.95996) < 0.02


def test_scaling_by_power_of_two_is_exact():
    cov = poisson_cov_matrix(GRID, 200.0, "estimated").matrix
    a = simulate_sup(cov, 1000, seed=9)
    b = simulate_sup(4.0 * cov, 1000, seed=9)
    np.testing.assert_array_equal(b, 2.0 * a)


def test_rho_scaling():
    # doubling the intensity exactly halves every draw for the same seed
    a = simulate_sup(poisson_cov_matrix(GRID, 200.0, "estimated"), 1000, seed=9)
    b = simulate_sup(poisson_cov_matrix(GRID, 400.0, "estimated"), 1000, seed=9)
    np.testing.assert_allclose(a, 2.0 * b, rtol=1e-12)


def test_general_scale_factor():
    cov = poisson_cov_matrix(GRID, 200.0, "known").matrix
    a = simulate_sup(cov, 500, seed=13)
    b = simulate_sup(9.0 * cov, 500, seed=13)
    np.testing.assert_allclose(b, 3.0 * a, rtol=1e-12)


def test_determinism():
    cov = poisson_cov_matrix(GRID, 200.0, "known").matrix
    a = simulate_sup(cov, 500, seed=21)
    b = simulate_sup(cov, 500, seed=21)
    np.testing.assert_array_equal(a, b)
    c = simulate_sup(cov, 500, seed=22)
    assert not np.array_equal(a, c)


def test_accepts_limit_covariance_object():
    lc = poisson_cov_matrix(GRID, 200.0, "estimated")
    a = simulate_sup(lc, 200, seed=2)
    b = simulate_sup(lc.matrix, 200, seed=2)
    np.testing.assert_array_equal(a, b)


def test_critical_value_order_statistic_rule():
    draws = np.arange(1.0, 101.0)
    assert critical_value(draws, 0.05) == 95.0
    assert critical_value(draws, 0.5) == 50.0
    with pytest.raises(ValueError):
        critical_value(draws, 0.0)
    with pytest.raises(ValueError):
        critical_value(draws, 1.0)


def test_critical_value_monotone_in_level():
    draws = simulate_sup(np.array([[1.0]]), 2000, seed=3)
    qs = [critical_value(draws, a) for a in (0.2, 0.1, 0.05, 0.01)]
    assert qs == sorted(qs)


def test_p_value_bookkeeping():
    draws = np.arange(1.0, 101.0)
    assert p_value(draws, 0.5) == 1.0
    assert p_value(draws, 1000.0) == pytest.approx(1 / 101)
    # statistic exactly at the critical value: p <= alpha + 2/(M+1)
    alpha = 0.05
    q = critical_value(draws, alpha)
    assert p_value(draws, q) <= alpha + 2 / 101


def test_sample_size_floor():
    for count in (50, 99):
        with pytest.raises(ValueError, match="^count must be >= 100$"):
            simulate_sup(np.eye(2), count, seed=0)
        with pytest.raises(ValueError, match="^count must be >= 100$"):
            gaussian_paths(np.eye(2), count, seed=0)
    assert gaussian_paths(np.eye(2), 100, seed=0).shape == (100, 2)


def test_sample_size_floor_is_one_rule():
    # the configs and the sampler refuse the same sizes with the same words
    for count in (-1, 0, 99):
        for config in (GofConfig, StudyConfig):
            with pytest.raises(ValueError, match="^sample_size must be >= 100$"):
                config(sample_size=count)
        with pytest.raises(ValueError, match="^sample_size must be >= 100$"):
            check_sample_size(count, "sample_size")
    check_sample_size(100, "sample_size")
    GofConfig(sample_size=100)
    StudyConfig(sample_size=100)


def test_simulate_sup_is_sorted_read_only_abs_max_of_paths():
    cov = poisson_cov_matrix(GRID, 200.0, "known")
    draws = simulate_sup(cov, 500, seed=4)
    paths = gaussian_paths(cov, 500, seed=4)
    np.testing.assert_array_equal(draws, np.sort(np.abs(paths).max(axis=1)))
    assert np.all(np.diff(draws) >= 0)
    with pytest.raises(ValueError, match="read-only"):
        draws[0] = 0.0


def test_jitter_handles_rank_deficiency():
    # singular but PSD: all-ones covariance (perfectly correlated components)
    cov = np.ones((4, 4))
    draws = simulate_sup(cov, 200, seed=6)
    assert np.all(np.isfinite(draws))


def test_not_psd_rejected():
    with pytest.raises(ValueError, match="not numerically PSD"):
        cholesky_with_jitter(np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(ValueError, match="symmetric"):
        cholesky_with_jitter(np.array([[1.0, 0.5], [0.0, 1.0]]))
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            cholesky_with_jitter(np.diag([1.0, bad]))
