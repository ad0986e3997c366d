import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from inhomk.geometry import PointPattern, Window
from inhomk.intensity import ConstantIntensity, CovariateField, LogLinearIntensity
from inhomk.kstat import (
    RadiusGrid,
    _radius_bins,
    h_matrix,
    k_hat,
    k_poisson,
)
from inhomk.seeds import stream
from inhomk.simulate import simulate_poisson
from taylor_expansion import taylor_residual

W1 = Window(2, 1.0)
TWO_POINTS = PointPattern(W1, [[0.0, 0.0], [0.03, 0.0]])


def test_grid_validation():
    g = RadiusGrid.uniform(0.05, 50)
    assert g.m == 50 and g.rmax == 0.05 and g.values[0] > 0
    with pytest.raises(ValueError):
        RadiusGrid(np.array([0.0, 0.1]))
    with pytest.raises(ValueError):
        RadiusGrid(np.array([0.1, 0.05]))
    with pytest.raises(ValueError):
        RadiusGrid(np.array([0.01, 0.02, 0.05]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    rmax=st.floats(1e-6, 1e6, allow_nan=False, allow_infinity=False),
    m=st.integers(2, 500),
)
@example(rmax=0.1, m=3)  # rmax * m / m is an ulp off rmax here
def test_uniform_grid_ends_exactly_at_rmax(rmax, m):
    grid = RadiusGrid.uniform(rmax, m)
    assert grid.m == m
    assert grid.rmax == rmax
    np.testing.assert_array_equal(grid.values[:-1], rmax * np.arange(1, m) / m)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    rmax=st.floats(1e-6, 1e6, allow_nan=False, allow_infinity=False),
    m=st.integers(2, 300),
    kind=st.sampled_from(["uniform", "uneven", "offset"]),
    frac=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**31),
)
@example(rmax=0.05, m=50, kind="uniform", frac=0.0, seed=0)
@example(rmax=1e-6, m=300, kind="uneven", frac=1.0, seed=1)
def test_radius_bins_equal_searchsorted(rmax, m, kind, frac, seed):
    rng = np.random.default_rng(seed)
    values = RadiusGrid.uniform(rmax, m).values.copy()
    step = rmax / m
    if kind == "uneven":
        # shifts small enough that every step stays within RadiusGrid's
        # tolerance (atol 1e-8 plus rtol 1e-9), and the radii increasing
        shift = min(frac * (1e-8 + 1e-9 * step / 2) / 4.5, step / 4)
        values += rng.uniform(-shift, shift, m)
    elif kind == "offset":
        # evenly spaced, but not from the origin: the first guess is far off
        values = rmax * (1.0 + frac * 10.0) - step * np.arange(m)[::-1]
    grid = RadiusGrid(values)
    at = grid.values
    dist = np.concatenate([
        at, np.nextafter(at, -np.inf), np.nextafter(at, np.inf),
        [0.0, 5e-324, 1e-300 * grid.rmax, 2.0 * grid.rmax, np.inf],
        rng.uniform(0.0, grid.rmax, 200),
    ])
    want = np.searchsorted(grid.values, dist, side="left")
    np.testing.assert_array_equal(_radius_bins(grid, dist), want)
    assert want[3 * m - 1] == m  # one ulp above rmax: the dropped bin


def test_k_poisson_values():
    assert k_poisson(0.05, 2) == pytest.approx(np.pi * 0.0025)
    assert k_poisson(0.0, 3) == 0.0
    assert k_poisson(1.0, 3) == pytest.approx(4 * np.pi / 3)
    assert k_poisson(1.0, 1) == pytest.approx(2.0)
    for dim in (0, -1):
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            k_poisson(1.0, dim)


def test_k_hat_two_point_example():
    grid = RadiusGrid.uniform(0.05, 5)
    curve = k_hat(TWO_POINTS, ConstantIntensity(200.0), grid)
    expected = 2 * (1 / 0.97) / 200.0**2
    # zero below the pair distance, the hand value at and above it
    np.testing.assert_allclose(curve.values[:2], 0.0)
    np.testing.assert_allclose(curve.values[2:], expected, rtol=1e-12)
    assert curve.values[-1] == pytest.approx(5.15464e-5, rel=1e-5)


def test_k_hat_zero_for_small_radius():
    grid = RadiusGrid.uniform(0.02, 4)
    curve = k_hat(TWO_POINTS, ConstantIntensity(200.0), grid)
    np.testing.assert_allclose(curve.values, 0.0)


def test_k_hat_empty_and_singleton():
    grid = RadiusGrid.uniform(0.05, 5)
    empty = PointPattern(W1, np.empty((0, 2)))
    np.testing.assert_allclose(
        k_hat(empty, ConstantIntensity(1.0), grid).values, 0.0
    )
    single = PointPattern(W1, [[0.2, -0.1]])
    np.testing.assert_allclose(
        k_hat(single, ConstantIntensity(1.0), grid).values, 0.0
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_k_hat_invariant_under_reflections_and_permutations(data):
    dim = data.draw(st.integers(1, 3))
    side = data.draw(st.floats(0.5, 2.0))
    flips = np.array(data.draw(st.lists(st.sampled_from((-1.0, 1.0)), min_size=dim,
                                        max_size=dim)))
    perm = data.draw(st.permutations(range(dim)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    pts = rng.uniform(-side / 2, side / 2, (data.draw(st.integers(2, 150)), dim))
    # Some coordinates on the window faces, where the cell index is clipped.
    faces = rng.random(pts.shape) < 0.05
    pts[faces] = np.sign(pts[faces]) * side / 2
    pts = np.unique(pts, axis=0)
    window = Window(dim, side)
    model = ConstantIntensity(len(pts) / window.volume)
    grid = RadiusGrid.uniform(data.draw(st.floats(0.05, 0.6)) * side, 20)
    base = k_hat(PointPattern(window, pts), model, grid).values
    moved = k_hat(PointPattern(window, (pts * flips)[:, perm]), model, grid).values
    np.testing.assert_allclose(moved, base, rtol=1e-12, atol=0)


def test_k_hat_monotone_nonnegative():
    pat = simulate_poisson(300.0, W1, seed=31)
    curve = k_hat(pat, ConstantIntensity(300.0), RadiusGrid.uniform(0.08, 40))
    assert np.all(curve.values >= 0)
    assert np.all(np.diff(curve.values) >= 0)


def test_k_hat_rejects_bad_intensity():
    class Broken:
        def value(self, points):
            return np.zeros(len(points))

    with pytest.raises(ValueError, match="invalid intensity"):
        k_hat(TWO_POINTS, Broken(), RadiusGrid.uniform(0.05, 5))


def test_k_hat_zero_overlap_errors():
    # a pair as far apart as the window is wide has no translation overlap
    pat = PointPattern(W1, [[-0.5, 0.0], [0.5, 0.0]])
    with pytest.raises(ValueError, match="pair displacement exceeds window"):
        k_hat(pat, ConstantIntensity(2.0), RadiusGrid.uniform(1.0, 4))


def brute_force_k_and_h(pattern, model, grid):
    """O(n^2) oracle: K and H summed over ordered pairs i != j with dist <= r."""
    pts, side = pattern.points, pattern.window.side
    rho, grad = model.value(pts), model.log_gradient(pts)
    n = len(pts)
    k = np.zeros(grid.m)
    h = np.zeros((grid.m, grad.shape[1]))
    for a in range(n):
        for b in range(n):
            disp = pts[a] - pts[b]
            dist = np.sqrt(np.sum(disp * disp))
            if a == b or dist > grid.rmax:
                continue
            w = 1.0 / (np.prod(side - np.abs(disp)) * rho[a] * rho[b])
            at = grid.values >= dist
            k[at] += w
            h[at] -= w * (grad[a] + grad[b])
    return k, h


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_k_hat_and_h_match_ordered_pair_sum(data):
    # Dyadic sides and grid steps: on the lattice, pair distances along an
    # axis equal grid radii exactly, which must count at that radius.
    dim = data.draw(st.integers(1, 3))
    side = data.draw(st.sampled_from((1.0, 2.0)))
    k = data.draw(st.integers(2, 4))
    step = side / 2**k
    multiple = data.draw(st.integers(2, 2**k - 1))
    grid = RadiusGrid.uniform(multiple * step, multiple * data.draw(st.sampled_from((1, 2))))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    pts = rng.uniform(-side / 2, side / 2, (data.draw(st.integers(2, 40)), dim))
    if data.draw(st.booleans()):
        pts = np.unique(np.round((pts + side / 2) / step) * step - side / 2, axis=0)
    window = Window(dim, side)
    field = CovariateField.from_function(
        window,
        lambda u: np.column_stack([np.ones(len(u)), 2.0 + u[:, 0] / side,
                                   1.5 + np.sin(3.0 * u[:, -1])]),
        4,
    )
    model = LogLinearIntensity([np.log(len(pts) / window.volume), 0.3, -0.2], field)
    pattern = PointPattern(window, pts)
    want_k, want_h = brute_force_k_and_h(pattern, model, grid)
    np.testing.assert_allclose(k_hat(pattern, model, grid).values, want_k, rtol=1e-12)
    np.testing.assert_allclose(h_matrix(pattern, model, grid).values, want_h, rtol=1e-12)


def test_h_matrix_constant_identity_exact():
    # h = -(2/beta) k at every grid point, to near machine precision
    grid = RadiusGrid.uniform(0.05, 25)
    for seed in range(5):
        pat = simulate_poisson(200.0, W1, stream(33, seed))
        k = k_hat(pat, ConstantIntensity(200.0), grid)
        h = h_matrix(pat, ConstantIntensity(200.0), grid)
        np.testing.assert_allclose(
            h.values[:, 0], -(2.0 / 200.0) * k.values, rtol=1e-14, atol=1e-300
        )


def test_h_matrix_two_point_value():
    grid = RadiusGrid.uniform(0.05, 5)
    h = h_matrix(TWO_POINTS, ConstantIntensity(200.0), grid)
    assert h.values[-1, 0] == pytest.approx(-5.15464e-7, rel=1e-5)


def test_h_matrix_unit_covariate_matches_constant():
    # log-linear with z == 1: gradient is 1 per point, so h = -2 k
    field = CovariateField.constant(W1, [1.0])
    model = LogLinearIntensity([np.log(200.0)], field)
    grid = RadiusGrid.uniform(0.05, 10)
    pat = simulate_poisson(200.0, W1, seed=34)
    k = k_hat(pat, model, grid)
    h = h_matrix(pat, model, grid)
    np.testing.assert_allclose(h.values[:, 0], -2.0 * k.values, rtol=1e-13)


def test_scale_consistency():
    # scaling a constant intensity by c scales k by c^-2 and h by c^-3
    grid = RadiusGrid.uniform(0.05, 10)
    pat = simulate_poisson(200.0, W1, seed=35)
    k1 = k_hat(pat, ConstantIntensity(100.0), grid).values
    k3 = k_hat(pat, ConstantIntensity(300.0), grid).values
    np.testing.assert_allclose(k3, k1 / 9.0, rtol=1e-12)
    h1 = h_matrix(pat, ConstantIntensity(100.0), grid).values
    h3 = h_matrix(pat, ConstantIntensity(300.0), grid).values
    np.testing.assert_allclose(h3, h1 / 27.0, rtol=1e-12)


def test_k_hat_unbiased_in_three_dimensions():
    # the estimator and edge correction are dimension-generic
    w = Window(3, 1.0)
    grid = RadiusGrid.uniform(0.1, 2)
    vals = np.empty(400)
    for rep in range(400):
        pat = simulate_poisson(300.0, w, stream(39, rep))
        vals[rep] = k_hat(pat, ConstantIntensity(300.0), grid).values[-1]
    target = k_poisson(0.1, 3)
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - target) < 3 * se


def test_taylor_residual_zero_at_equal_parameters():
    grid = RadiusGrid.uniform(0.05, 10)
    pat = simulate_poisson(200.0, W1, seed=36)
    res = taylor_residual(pat, ConstantIntensity, 200.0, 200.0, grid)
    np.testing.assert_allclose(res.values, 0.0)


def test_taylor_residual_second_order():
    # halving epsilon quarters the max residual
    grid = RadiusGrid.uniform(0.05, 10)
    pat = simulate_poisson(300.0, W1, seed=37)
    beta = 300.0

    def max_residual(eps):
        res = taylor_residual(pat, ConstantIntensity, beta, beta * (1 + eps), grid)
        return np.abs(res.values).max()

    r1 = max_residual(1e-3)
    r2 = max_residual(5e-4)
    assert r1 / r2 == pytest.approx(4.0, rel=0.05)


def test_taylor_residual_shrinks_with_window():
    # consistency: sup residual with the estimated intensity shrinks as L grows
    grid = RadiusGrid.uniform(0.05, 10)
    sups = []
    for L in (1.0, 2.0, 4.0):
        w = Window(2, L)
        vals = []
        for rep in range(60):
            pat = simulate_poisson(200.0, w, stream(38, int(L * 100) + rep))
            beta_hat = len(pat) / w.volume
            res = taylor_residual(pat, ConstantIntensity, 200.0, beta_hat, grid)
            vals.append(np.abs(res.values).max())
        sups.append(np.mean(vals))
    assert sups[0] > sups[1] > sups[2]
