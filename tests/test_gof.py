import warnings
from math import gamma, pi, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inhomk.asymcov import poisson_cov_matrix
from inhomk.geometry import PointPattern, Window
from inhomk.gof import (
    _MARGIN,
    GofConfig,
    PoissonNullTables,
    _kept_lines,
    _rung_value,
    gof_test,
    sup_distance,
)
from inhomk.intensity import ConstantIntensity
from inhomk.kstat import RadiusGrid, k_hat
from inhomk.limitlaw import (
    cholesky_with_jitter,
    critical_value,
    normal_reservoir,
    simulate_sup,
    upper_quantile,
)
from inhomk.seeds import stream
from inhomk.simulate import simulate_poisson

W1 = Window(2, 1.0)


def ks_statistic(pattern, rho, grid):
    """The test statistic: sup distance of the unit-intensity curve at ``rho``."""
    unit = k_hat(pattern, ConstantIntensity(1.0), grid).values
    return float(sup_distance(unit, rho, grid, pattern.window))


def test_ks_statistic_empty_pattern():
    empty = PointPattern(W1, np.empty((0, 2)))
    grid = RadiusGrid.uniform(0.05, 50)
    stat = ks_statistic(empty, 200.0, grid)
    assert stat == pytest.approx(np.pi * 0.0025)


def test_ks_statistic_two_points_hand_value():
    # K-hat jumps to 2 (1/0.97) / rho^2 at 0.03 and stays; the sup over the
    # grid is attained at R where pi R^2 dominates
    pat = PointPattern(W1, [[0.0, 0.0], [0.03, 0.0]])
    grid = RadiusGrid.uniform(0.05, 5)
    khat_val = 2 * (1 / 0.97) / 200.0**2
    expected = np.pi * 0.05**2 - khat_val
    stat = ks_statistic(pat, 200.0, grid)
    assert stat == pytest.approx(expected, rel=1e-12)


def test_ks_statistic_scales_with_sqrt_volume():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-0.5, 0.5, (100, 2))
    grid = RadiusGrid.uniform(0.05, 10)
    s1 = ks_statistic(PointPattern(W1, pts), 100.0, grid)
    s4 = ks_statistic(PointPattern(Window(2, 2.0), pts), 100.0, grid)
    assert s4 != s1  # sqrt(n) factor and different edge correction


def test_gof_reject_iff_statistic_exceeds_critical():
    cfg = GofConfig(sample_size=2000, seed=3)
    for rep in range(50):
        pat = simulate_poisson(200.0, W1, stream(50, rep))
        res = gof_test(pat, cfg)
        assert res.reject == (res.statistic > res.critical_value)


def test_gof_estimated_critical_is_scaled_table():
    cfg = GofConfig(sample_size=5000, seed=4)
    tables = PoissonNullTables(cfg.grid(), cfg.sample_size, cfg.seed)
    std = tables.estimated_critical(cfg.alpha, 1.0)
    for rep in range(20):
        pat = simulate_poisson(200.0, W1, stream(51, rep))
        res = gof_test(pat, cfg)
        assert res.critical_value == std / res.beta_hat


def test_gof_estimated_table_matches_simulate_sup():
    grid = RadiusGrid.uniform(0.05, 50)
    for dim in (1, 2, 3):
        tables = PoissonNullTables(grid, 2000, 17, dim)
        sup = simulate_sup(poisson_cov_matrix(grid, 1.0, "estimated", dim), 2000, 17)
        np.testing.assert_array_equal(tables.estimated_draws(1.0), sup)


def test_gof_known_table_agrees_with_general_path():
    grid = RadiusGrid.uniform(0.05, 50)
    tables = PoissonNullTables(grid, 50_000, 17)
    q1 = tables.known_critical(0.05, 200.0)
    q2 = critical_value(
        simulate_sup(poisson_cov_matrix(grid, 200.0, "known"), 50_000, 17), 0.05
    )
    assert q1 == pytest.approx(q2, rel=0.03)


def test_gof_known_mode_same_statistic_larger_critical():
    pat = simulate_poisson(200.0, W1, seed=52)
    est = gof_test(pat, GofConfig(mode="estimated", sample_size=2000, seed=5))
    known = gof_test(pat, GofConfig(mode="known", sample_size=2000, seed=5))
    assert est.statistic == known.statistic
    assert known.critical_value > est.critical_value


def test_gof_statistic_permutation_invariant():
    rng = np.random.default_rng(1)
    pts = rng.uniform(-0.5, 0.5, (150, 2))
    cfg = GofConfig(sample_size=1000, seed=6)
    base = gof_test(PointPattern(W1, pts), cfg).statistic
    for _ in range(3):
        perm = rng.permutation(len(pts))
        shuffled = gof_test(PointPattern(W1, pts[perm]), cfg).statistic
        assert shuffled == pytest.approx(base, rel=1e-12)


def test_gof_p_value_consistent_with_rejection():
    cfg = GofConfig(sample_size=2000, seed=7)
    m = cfg.sample_size
    for rep in range(40):
        pat = simulate_poisson(150.0, W1, stream(53, rep))
        res = gof_test(pat, cfg)
        if res.reject:
            assert res.p_value <= cfg.alpha + 2 / (m + 1)
        else:
            assert res.p_value >= cfg.alpha - 2 / (m + 1)


def test_gof_empty_pattern_estimated_errors():
    empty = PointPattern(W1, np.empty((0, 2)))
    with pytest.raises(ValueError, match="zero estimated intensity"):
        gof_test(empty, GofConfig(seed=1, sample_size=500))


def test_gof_three_dimensions():
    # the test runs on the dim-3 null: ball-volume statistic and tables
    window = Window(3, 1.0)
    pat = simulate_poisson(200.0, window, seed=56)
    grid = RadiusGrid.uniform(0.1, 20)
    tables = PoissonNullTables(grid, 2000, 8, dim=3)
    for mode in ("estimated", "known"):
        cfg = GofConfig(R=0.1, grid_size=20, mode=mode, sample_size=2000, seed=8)
        res = gof_test(pat, cfg)
        assert res.beta_hat == len(pat)
        assert res.statistic == ks_statistic(pat, res.beta_hat, grid)
        draws = getattr(tables, f"{mode}_draws")(res.beta_hat)
        assert res.critical_value == upper_quantile(draws, cfg.alpha)
    for dim in (0, -1):
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            PoissonNullTables(grid, 100, 8, dim=dim)


def test_ks_statistic_general_dimension():
    # the statistic itself uses the ball-volume null in any dimension
    empty = PointPattern(Window(3, 1.0), np.empty((0, 3)))
    grid = RadiusGrid.uniform(0.1, 10)
    stat = ks_statistic(empty, 100.0, grid)
    assert stat == pytest.approx(4 * np.pi / 3 * 0.1**3)


@pytest.mark.parametrize("rho", [0.0, -1.0, np.inf, -np.inf, np.nan, 5e-324])
@pytest.mark.parametrize(
    "method", ["estimated_draws", "known_draws", "estimated_critical", "known_critical"]
)
def test_null_tables_reject_invalid_intensity(method, rho):
    tables = PoissonNullTables(RadiusGrid.uniform(0.05, 5), 100, 1)
    args = (0.05, rho) if method.endswith("critical") else (rho,)
    # a subnormal intensity is finite and positive, but the draws overflow
    message = "overflow" if rho == 5e-324 else "finite and positive"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            getattr(tables, method)(*args)


def _full_width_draws(grid, sample_size, seed, rho, dim=2):
    """Sorted known-mode draws from the full-width formula, one row max per draw."""
    k = pi ** (dim / 2) / gamma(dim / 2 + 1) * grid.values**dim  # ball volume K_d
    factor = cholesky_with_jitter(2.0 * np.minimum.outer(k, k))
    signed = normal_reservoir(seed, sample_size, grid.m) @ factor.T
    xi = stream(seed, "supnorm-xi").standard_normal(sample_size)
    paths = np.multiply.outer(xi, 2.0 * k) / sqrt(rho) + signed / rho
    return np.sort(np.abs(paths).max(axis=1))


# full_rows of every example of the property test below, read by the
# structural test after it.
_FULL_ROWS_SEEN: list[int] = []

_log_uniform_rho = st.floats(-3.0, 6.0).map(lambda e: 10.0**e)
# Exact rung values s_j^2 = 2^(2j/8) of the certificate ladder, within 1e-3..1e6.
_rung_rho = st.integers(-39, 79).map(lambda j: 2.0 ** (2 * j / 8))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    m=st.integers(2, 60),
    sample_size=st.integers(100, 3000),
    seed=st.integers(0, 2**16),
    rhos=st.lists(st.one_of(_log_uniform_rho, _rung_rho), min_size=1, max_size=6),
    alpha=st.floats(0.001, 0.999),
    dim=st.integers(1, 3),
)
def test_known_draws_equal_full_width_formula(m, sample_size, seed, rhos, alpha, dim):
    grid = RadiusGrid.uniform(0.05, m)
    tables = PoissonNullTables(grid, sample_size, seed, dim)
    for rho in rhos:
        reference = _full_width_draws(grid, sample_size, seed, rho, dim)
        np.testing.assert_array_equal(tables.known_draws(rho), reference)
        assert tables.known_critical(alpha, rho) == upper_quantile(reference, alpha)
    _FULL_ROWS_SEEN.append(tables.full_rows)


def test_known_draws_dense_sweep_with_two_radii():
    # With two radii the winning line of a few rows changes sign inside a
    # bracket (it crosses zero there, and the other line wins around the
    # crossing); a dense sweep over those brackets must still match.
    grid = RadiusGrid.uniform(0.05, 2)
    tables = PoissonNullTables(grid, 3000, 1)
    for rho in np.geomspace(8.0, 200.0, 600):
        np.testing.assert_array_equal(
            tables.known_draws(rho), _full_width_draws(grid, 3000, 1, rho)
        )


def test_known_draws_certify_most_rows_on_table1_cell():
    # Table-1 setting: grid 50, M = 10^4, the distinct estimates of one
    # 200-replicate Poisson(200) cell on the unit square.
    counts = [len(simulate_poisson(200.0, W1, stream(3, rep))) for rep in range(200)]
    distinct = np.unique(np.array(counts, dtype=float))
    tables = PoissonNullTables(RadiusGrid.uniform(0.05, 50), 10_000, 3)
    for rho in distinct:
        tables.known_draws(rho)
    assert tables.full_rows < 0.1 * len(distinct) * tables.sample_size
    # A row without a one-line certificate keeps a few candidate lines, not m.
    assert tables._brackets
    for term, _, _ in tables._brackets.values():
        assert len(term) < 1.1 * tables.sample_size
    # The property test above must have exercised rows with several lines too.
    if not _FULL_ROWS_SEEN:
        test_known_draws_equal_full_width_formula()
    assert max(_FULL_ROWS_SEEN) > 0


_END = st.floats(-1.0, 1.0)
# Offsets of a near tie from the margin, relative to the margin.
_TIE = st.sampled_from([-1e-3, -1e-7, 0.0, 1e-7, 1e-3])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(j=st.integers(-40, 80), m=st.integers(2, 8), rows=st.integers(1, 6), data=st.data())
def test_kept_lines_hold_every_float_argmax(j, m, rows, data):
    # Lines are drawn by their values at the two rungs, so that winners
    # crossing zero inside the bracket are common; some lines are then set to
    # tie with a rung winner within a hair of the margin at both rungs.
    lo, hi = _rung_value(j), _rung_value(j + 1)
    ends = np.array(data.draw(st.lists(st.tuples(_END, _END), min_size=rows * m,
                                       max_size=rows * m))).reshape(rows, m, 2)
    margin = _MARGIN * np.abs(ends).max(axis=(1, 2)) * data.draw(st.floats(1.0, 1e3))
    for row in range(rows):
        rung = data.draw(st.integers(0, 1))
        winner = np.abs(ends[row, :, rung]).argmax()
        for line in data.draw(st.sets(st.integers(0, m - 1), max_size=m - 1)) - {winner}:
            ties = [data.draw(_TIE), data.draw(_TIE)]
            signs = [data.draw(st.sampled_from([-1.0, 1.0])) for _ in ties]
            ends[row, line] = [
                sign * (abs(ends[row, winner, end]) - margin[row] * (1.0 + tie))
                for end, (tie, sign) in enumerate(zip(ties, signs))
            ]
    slope = (ends[..., 1] - ends[..., 0]) / (hi - lo)
    intercept = ends[..., 0] - slope * lo
    keep = _kept_lines(slope * lo + intercept, margin, slope * hi + intercept, margin)
    assert keep.any(axis=1).all()
    # A dense sweep of rho over the bracket, plus every zero crossing in it.
    with np.errstate(divide="ignore", invalid="ignore"):
        crossings = (-intercept / slope).ravel()
    rho = np.concatenate([np.linspace(lo, hi, 2001), crossings]) ** 2
    rho = rho[(np.sqrt(rho) >= lo) & (np.sqrt(rho) <= hi), None, None]
    # The draw's operations, as in the tables; argmax over lines per rho and row.
    winners = np.abs(slope / np.sqrt(rho) + intercept / rho).argmax(axis=2)
    assert keep[np.arange(rows), winners].all()
