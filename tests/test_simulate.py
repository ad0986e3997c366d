import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inhomk.geometry import Window
from inhomk.intensity import ConstantIntensity, CovariateField, LogLinearIntensity
from inhomk.seeds import stream
from inhomk.simulate import (
    MaternParams,
    _uniform_in_ball,
    simulate_matern,
    simulate_poisson,
    simulate_poisson_inhom,
)

W1 = Window(2, 1.0)


def test_determinism_byte_identical():
    a = simulate_poisson(200.0, W1, seed=42)
    b = simulate_poisson(200.0, W1, seed=42)
    assert np.array_equal(a.points, b.points)
    m = MaternParams(25.0, 8.0, 0.2)
    assert np.array_equal(
        simulate_matern(m, W1, seed=9).points, simulate_matern(m, W1, seed=9).points
    )


def test_points_inside_window():
    for seed in range(5):
        pat = simulate_matern(MaternParams(25.0, 8.0, 0.2), W1, seed=seed)
        assert np.abs(pat.points).max() <= 0.5
        pat = simulate_poisson(100.0, Window(3, 2.0), seed=seed)
        assert np.abs(pat.points).max() <= 1.0


def test_uniform_rows_reach_the_lower_face():
    # numpy's uniform(low, high) is low + (high - low) * random(), bitwise, and
    # random() returns 0.0 (one draw in 2**53), which gives -side/2 exactly.
    low, high = -0.35, 0.35
    u = np.random.default_rng(5).random((1000, 3))
    np.testing.assert_array_equal(np.random.default_rng(5).uniform(low, high, (1000, 3)),
                                  low + (high - low) * u)
    assert low + (high - low) * 0.0 == low


class EdgeDraws(np.random.Generator):
    """Three points whose rows are numpy's extreme uniform draws, 0 and 1 - 2**-53."""

    def poisson(self, lam):
        return 3

    def uniform(self, low=0.0, high=1.0, size=None):
        u = np.array([[0.0, 0.0], [0.0, 1.0 - 2.0**-53], [1.0 - 2.0**-53, 1.0 - 2.0**-53]])
        return low + (high - low) * u


@pytest.mark.parametrize("side", [1.0, 0.7, 2.0 / 3.0])
def test_poisson_draw_on_the_lower_face_is_a_pattern(side):
    pattern = simulate_poisson(100.0, Window(2, side), EdgeDraws(np.random.PCG64(0)))
    assert pattern.points.min() == -side / 2.0
    assert pattern.points.max() <= side / 2.0


def test_poisson_count_mean():
    # 1e4 replicates: sample mean within 3 sqrt(200/1e4) of 200
    counts = [len(simulate_poisson(200.0, W1, stream(77, r))) for r in range(10_000)]
    assert abs(np.mean(counts) - 200.0) < 3 * np.sqrt(200.0 / 10_000)


def test_matern_count_mean():
    m = MaternParams(25.0, 8.0, 0.2)
    counts = np.array(
        [len(simulate_matern(m, W1, stream(78, r))) for r in range(10_000)]
    )
    se = counts.std(ddof=1) / 100.0
    assert abs(counts.mean() - 200.0) < 3 * se


def test_matern_tiny_mu_empty():
    pat = simulate_matern(MaternParams(25.0, 1e-9, 0.2), W1, seed=1)
    assert len(pat) == 0


def test_matern_quadrant_stationarity():
    # parent dilation removes edge bias: per-quadrant means agree within MC error
    m = MaternParams(25.0, 8.0, 0.2)
    quad_counts = np.zeros(4)
    reps = 4000
    for r in range(reps):
        pts = simulate_matern(m, W1, stream(79, r)).points
        if len(pts) == 0:
            continue
        qx = (pts[:, 0] > 0).astype(int)
        qy = (pts[:, 1] > 0).astype(int)
        for q in range(4):
            quad_counts[q] += np.sum((qx + 2 * qy) == q)
    means = quad_counts / reps
    # each quadrant expects 50 points; cluster counts have sd ~ sqrt(50*9)
    se = np.sqrt(50 * 9 / reps)
    assert np.all(np.abs(means - 50.0) < 5 * se)


def test_inhom_constant_reduces_to_poisson_rate():
    field = CovariateField.constant(W1, [1.0])
    model = LogLinearIntensity([np.log(200.0)], field)
    counts = [
        len(simulate_poisson_inhom(model, 200.0, W1, stream(80, r)))
        for r in range(10_000)
    ]
    assert abs(np.mean(counts) - 200.0) < 3 * np.sqrt(200.0 / 10_000)


def test_inhom_dominating_points_are_the_poisson_draw():
    # Thinning draws its dominating points by simulate_poisson's own draw, from
    # the same stream: at retention 1 the two patterns are bitwise equal.
    for seed in range(5):
        thinned = simulate_poisson_inhom(ConstantIntensity(200.0), 200.0, W1, seed)
        assert thinned.points.tobytes() == simulate_poisson(200.0, W1, seed).points.tobytes()


def test_inhom_zero_slope_is_constant():
    field = CovariateField.from_function(
        W1, lambda pts: np.stack([np.ones(len(pts)), pts[:, 0]], axis=1), 32
    )
    model = LogLinearIntensity([np.log(200.0), 0.0], field)
    counts = [
        len(simulate_poisson_inhom(model, 200.0, W1, stream(81, r)))
        for r in range(4000)
    ]
    assert abs(np.mean(counts) - 200.0) < 3 * np.sqrt(200.0 / 4000)


def test_inhom_expected_count_matches_analytic_integral():
    # z(u) = u1, beta = (5, 1): E N = int_W exp(5 + u1) du = e^5 (e^1/2 - e^-1/2)
    field = CovariateField.from_function(
        W1, lambda pts: np.stack([np.ones(len(pts)), pts[:, 0]], axis=1), 256
    )
    model = LogLinearIntensity([5.0, 1.0], field)
    rho_max = float(model.cell_values().max())
    counts = np.array(
        [
            len(simulate_poisson_inhom(model, rho_max, W1, stream(82, r)))
            for r in range(10_000)
        ]
    )
    # the raster integral is the exact mean of the rasterized model; it approaches
    # the analytic value as the raster refines
    target = np.exp(5.0) * (np.exp(0.5) - np.exp(-0.5))
    se = counts.std(ddof=1) / 100.0
    assert abs(counts.mean() - target) < 3 * se + abs(
        float((model.cell_values() * field.cell_volume).sum()) - target
    )


def test_inhom_dominating_bound_violated():
    field = CovariateField.constant(W1, [1.0])
    model = LogLinearIntensity([np.log(200.0)], field)
    with pytest.raises(ValueError, match="dominating bound"):
        simulate_poisson_inhom(model, 100.0, W1, seed=3)


def test_matern_params_validation():
    with pytest.raises(ValueError):
        MaternParams(0.0, 8.0, 0.2)
    with pytest.raises(ValueError):
        MaternParams(25.0, -1.0, 0.2)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**31))
def test_inhom_exact_maximum_never_violates_the_bound(seed):
    # A log-linear intensity is constant on raster cells, so cell_values().max()
    # is its exact supremum: no simulated location may exceed it, rounding
    # included. The intercept puts about 300 candidates in the window.
    rng = np.random.default_rng(seed)
    dim, res, p = int(rng.integers(1, 4)), int(rng.integers(1, 7)), int(rng.integers(1, 4))
    window = Window(dim, float(rng.uniform(0.5, 2.0)))
    values = rng.normal(scale=rng.uniform(0.1, 3.0), size=(res,) * dim + (p,))
    values[..., 0] = 1.0
    beta = rng.normal(size=p)
    beta[0] = 0.0
    beta[0] = np.log(300.0 / window.volume) - (values.reshape(-1, p) @ beta).max()
    model = LogLinearIntensity(beta, CovariateField(window, values))
    # raises "dominating bound violated" if any location exceeds the bound
    simulate_poisson_inhom(model, model.cell_values().max(), window, stream(seed))


# Row-mask references: the generators select rows with np.take on flatnonzero
# indices and test axes column by column; these boolean-mask forms must give
# the same bits and leave the stream in the same state.
def _ball_by_masks(rng, count, dim, radius):
    out = np.empty((count, dim))
    got = 0
    while got < count:
        need = count - got
        cand = rng.uniform(-radius, radius, size=(max(64, 2 * need), dim))
        ok = cand[np.einsum("ij,ij->i", cand, cand) <= radius * radius]
        take = min(len(ok), need)
        out[got : got + take] = ok[:take]
        got += take
    return out


def _matern_by_masks(params, window, rng):
    d = window.dim
    dilated_side = window.side + 2.0 * params.rdisp
    n_parents = rng.poisson(params.kappa * dilated_side**d)
    parents = rng.uniform(-dilated_side / 2.0, dilated_side / 2.0, size=(n_parents, d))
    n_off = rng.poisson(params.mu, size=n_parents) if n_parents else np.empty(0, int)
    offsets = _ball_by_masks(rng, int(n_off.sum()), d, params.rdisp)
    children = np.repeat(parents, n_off, axis=0) + offsets
    return children[np.all(np.abs(children) <= window.side / 2.0, axis=1)]


def _inhom_by_masks(model, rho_max, window, rng):
    n = rng.poisson(rho_max * window.volume)
    pts = rng.uniform(-window.side / 2.0, window.side / 2.0, size=(n, window.dim))
    if n == 0:
        return pts
    keep = rng.uniform(size=n) < np.asarray(model.value(pts), dtype=float) / rho_max
    return pts[keep]


def _same_bits(got, want):
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_uniform_in_ball_matches_row_masks(dim):
    # From 4-D on, fewer than half the cube's draws land in the ball, so the
    # rejection loop runs more than once.
    for seed in range(40):
        count = (0, 1, 7, 63, 64, 65, 500)[seed % 7]
        a, b = stream(seed, dim), stream(seed, dim)
        assert _same_bits(_uniform_in_ball(a, count, dim, 0.3), _ball_by_masks(b, count, dim, 0.3))
        assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_matern_matches_row_masks(dim):
    window = Window(dim, 1.0)
    empty = 0
    for seed in range(60):
        # every sixth stream has a tiny parent intensity: often no parent at all
        params = MaternParams(1e-3 if seed % 6 == 0 else 25.0 / 2**dim, 6.0, 0.2)
        a, b = stream(seed, dim, "matern"), stream(seed, dim, "matern")
        got = simulate_matern(params, window, a).points
        assert _same_bits(got, _matern_by_masks(params, window, b))
        assert a.bit_generator.state == b.bit_generator.state
        empty += len(got) == 0
    assert empty >= 5


class _Ripple:
    """A test intensity in any dimension, at most ``peak`` and zero on part of the window."""

    def __init__(self, peak):
        self.peak = peak

    def value(self, points):
        return self.peak * np.maximum(np.cos(4.0 * points).prod(axis=1), 0.0)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_poisson_inhom_matches_row_masks(dim):
    window = Window(dim, 1.0)
    empty = 0
    for seed in range(60):
        # every sixth stream has a tiny bound: usually no point at all
        model = _Ripple(1e-3 if seed % 6 == 0 else 150.0)
        a, b = stream(seed, dim, "inhom"), stream(seed, dim, "inhom")
        got = simulate_poisson_inhom(model, model.peak, window, a).points
        assert _same_bits(got, _inhom_by_masks(model, model.peak, window, b))
        assert a.bit_generator.state == b.bit_generator.state
        empty += len(got) == 0
    assert empty >= 5
