import warnings
from math import erfc, gamma, pi, sqrt

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


def brownian_sup_quantile(alpha, T):
    """The ``x`` with ``P(sup_{t <= T} |B_t| < x) = 1 - alpha``, by bisection.

    The two-sided exit law of Brownian motion is the series
    ``(4 / pi) sum_k (-1)^k / (2k+1) exp(-(2k+1)^2 pi^2 T / (8 x^2))``.
    """
    odd = 2.0 * np.arange(200) + 1.0
    sign = (-1.0) ** np.arange(200)

    def cdf(x):
        return 4.0 / pi * np.sum(sign / odd * np.exp(-(odd * pi) ** 2 * T / (8.0 * x * x)))

    lo, hi = 1e-3 * sqrt(T), 10.0 * sqrt(T)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if cdf(mid) < 1.0 - alpha else (lo, mid)
    return 0.5 * (lo + hi)


def test_estimated_critical_approaches_brownian_sup_law():
    # Under the Poisson null the estimated-mode limit at rho = 1 is
    # sqrt(2) B(K(r)), so the grid sup is at most sqrt(2) sup_{t <= K(R)} |B_t|,
    # whose upper quantile the exit series gives independently of the sampler.
    # A finer grid comes closer to it. Bounds fixed in advance, seed not searched.
    alpha, R, sample_size, seed = 0.05, 0.05, 20_000, 4
    ratios = {}
    for m in (50, 200):
        for dim in (1, 2, 3):
            T = pi ** (dim / 2) / gamma(dim / 2 + 1) * R**dim
            tables = PoissonNullTables(RadiusGrid.uniform(R, m), sample_size, seed, dim)
            exact = sqrt(2.0) * brownian_sup_quantile(alpha, T)
            ratios[m, dim] = tables.estimated_critical(alpha, 1.0) / exact
    assert all(ratio <= 1.01 for ratio in ratios.values()), ratios
    assert all(ratios[200, dim] >= 0.94 for dim in (1, 2, 3)), ratios
    assert all(ratios[50, dim] >= 0.92 for dim in (1, 2, 3)), ratios
    mean = {m: np.mean([ratios[m, dim] for dim in (1, 2, 3)]) for m in (50, 200)}
    assert mean[200] > mean[50], ratios


_erfc = np.vectorize(erfc)


def log_strip_mass(a, b):
    """``log(Phi(a) - Phi(b))`` for ``a > b``, from the lower tails: ``Phi(a) - Phi(b)``
    is ``Phi(-b) - Phi(-a)``, so both arguments are flipped where ``b > 0``."""
    flip = b > 0
    a, b = np.where(flip, -b, a), np.where(flip, -a, b)
    with np.errstate(divide="ignore"):
        return np.log(0.5 * _erfc(-a / sqrt(2.0)) - 0.5 * _erfc(-b / sqrt(2.0)))


def drifted_sup_quantile(alpha, lam):
    """The ``u`` with ``P(sup_{s <= 1} |W_s + lam Z s| < u) = 1 - alpha``, by bisection.

    ``W`` is a Brownian motion and ``Z`` an independent N(0, 1). Given
    ``nu = lam Z``, the strip's images under the Girsanov tilt give
    ``sum_k (-1)^k e^(2 k u nu) [Phi(u - 2ku - nu) - Phi(-u - 2ku - nu)]`` over
    ``|k| <= 6``, each term in log space; a node with ``|nu| > u + 9`` counts 0.
    The average over ``Z`` is 96-node Gauss-Hermite.
    """
    z, weights = np.polynomial.hermite_e.hermegauss(96)
    weights = weights / sqrt(2.0 * pi)
    k = np.arange(-6, 7)[:, None]
    nu = lam * z

    def cdf(u):
        a = u - 2.0 * k * u - nu
        terms = (-1.0) ** k * np.exp(2.0 * k * u * nu + log_strip_mass(a, a - 2.0 * u))
        return weights @ np.where(np.abs(nu) <= u + 9.0, terms.sum(axis=0), 0.0)

    lo, hi = 1e-3, 10.0 + 5.0 * lam
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if cdf(mid) < 1.0 - alpha else (lo, mid)
    return 0.5 * (lo + hi)


def test_known_critical_approaches_drifted_sup_law():
    # Under the Poisson null the known-mode limit is (sqrt(2)/rho) B(t) +
    # (2/sqrt(rho)) t Z at t = K(r) <= T = K(R): over T, (sqrt(2T)/rho)(W_s +
    # lam Z s) with lam = sqrt(2 rho T), whose sup law the series gives. With no
    # drift it is the estimated-mode law. Bounds fixed in advance, seed not searched.
    alpha, R, sample_size, seed = 0.05, 0.05, 20_000, 4
    ratios = {}
    for dim in (1, 2, 3):
        T = pi ** (dim / 2) / gamma(dim / 2 + 1) * R**dim
        exact = sqrt(2.0) * brownian_sup_quantile(alpha, T)
        assert drifted_sup_quantile(alpha, 0.0) * sqrt(2.0 * T) == pytest.approx(exact, rel=1e-6)
        closed = {rho: drifted_sup_quantile(alpha, sqrt(2.0 * rho * T)) * sqrt(2.0 * T) / rho
                  for rho in (50.0, 200.0, 800.0)}
        for m in (50, 200):
            tables = PoissonNullTables(RadiusGrid.uniform(R, m), sample_size, seed, dim)
            for rho, critical in closed.items():
                ratios[m, dim, rho] = tables.known_critical(alpha, rho) / critical
    assert all(ratio <= 1.01 for ratio in ratios.values()), ratios
    assert all(ratio >= 0.94 for (m, *_), ratio in ratios.items() if m == 200), ratios
    assert all(ratio >= 0.92 for (m, *_), ratio in ratios.items() if m == 50), ratios


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
