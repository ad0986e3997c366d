import re

import numpy as np
import pytest

from inhomk.geometry import PointPattern, Window
from inhomk.intensity import (
    ConstantIntensity,
    CovariateField,
    FitResult,
    LogLinearIntensity,
    cl_score,
    cl_sensitivity,
    estimate_constant,
    fit_loglinear,
)
from inhomk.kstat import RadiusGrid, h_matrix, k_hat
from inhomk.seeds import stream
from inhomk.simulate import simulate_poisson, simulate_poisson_inhom
from taylor_expansion import taylor_residual

W1 = Window(2, 1.0)


def _uniform_pattern(window, n, seed):
    rng = np.random.default_rng(seed)
    half = window.side / 2
    return PointPattern(window, rng.uniform(-half, half, (n, window.dim)))


def linear_field(window, resolution=32):
    return CovariateField.from_function(
        window,
        lambda pts: np.stack([np.ones(len(pts)), pts[:, 0]], axis=1),
        resolution,
    )


def test_estimate_constant_examples():
    assert estimate_constant(_uniform_pattern(W1, 180, 0)) == 180.0
    assert estimate_constant(_uniform_pattern(Window(2, 2.0), 800, 1)) == 200.0


def test_estimate_constant_empty_errors():
    with pytest.raises(ValueError, match="zero estimated intensity"):
        estimate_constant(PointPattern(W1, np.empty((0, 2))))


def test_estimate_constant_unbiased():
    # 1e4 Poisson(200) replicates on L = 4
    w = Window(2, 4.0)
    vals = [
        estimate_constant(simulate_poisson(200.0, w, stream(55, r)))
        for r in range(10_000)
    ]
    assert abs(np.mean(vals) - 200.0) < 3 * np.sqrt(200.0 / 16 / 10_000)


def test_cl_score_unit_covariate_root():
    pat = _uniform_pattern(W1, 173, 3)
    field = CovariateField.constant(W1, [1.0])
    model = LogLinearIntensity([np.log(173.0)], field)
    np.testing.assert_allclose(cl_score(pat, model), [0.0], atol=1e-10)


def test_cl_score_empty_pattern():
    field = CovariateField.constant(W1, [1.0])
    empty = PointPattern(W1, np.empty((0, 2)))
    np.testing.assert_allclose(
        cl_score(empty, LogLinearIntensity([0.0], field)), [-1.0]
    )


def test_cl_score_window_mismatch():
    field = CovariateField.constant(Window(2, 2.0), [1.0])
    with pytest.raises(ValueError, match="window"):
        cl_score(_uniform_pattern(W1, 10, 0), LogLinearIntensity([0.0], field))


def test_cl_score_zero_mean_at_truth():
    # Campbell formula: E e(beta*) = 0; Monte Carlo over simulated patterns
    field = linear_field(W1, 64)
    beta_star = np.array([4.0, 1.0])
    model = LogLinearIntensity(beta_star, field)
    rho_max = float(model.cell_values().max())
    scores = np.array(
        [
            cl_score(
                simulate_poisson_inhom(model, rho_max, W1, stream(56, r)), model
            )
            for r in range(4000)
        ]
    )
    se = scores.std(axis=0, ddof=1) / np.sqrt(len(scores))
    assert np.all(np.abs(scores.mean(axis=0)) < 3 * se)


def test_cl_sensitivity_constant():
    field = CovariateField.constant(W1, [1.0])
    s = cl_sensitivity(LogLinearIntensity([np.log(200.0)], field))
    np.testing.assert_allclose(s, [[200.0]], rtol=1e-12)


def test_cl_sensitivity_linear_term():
    # entry (2,2) approximates int u1^2 du = 1/12 as the raster refines
    coarse = cl_sensitivity(LogLinearIntensity([0.0, 0.0], linear_field(W1, 16)))
    fine = cl_sensitivity(LogLinearIntensity([0.0, 0.0], linear_field(W1, 128)))
    assert abs(coarse[1, 1] - 1 / 12) < 1e-3
    assert abs(fine[1, 1] - 1 / 12) < 2e-5
    assert abs(fine[1, 1] - 1 / 12) < abs(coarse[1, 1] - 1 / 12)


def test_cl_sensitivity_symmetric_psd_random_rasters():
    rng = np.random.default_rng(8)
    for _ in range(20):
        vals = rng.normal(size=(8, 8, 3))
        field = CovariateField(W1, vals)
        beta = rng.normal(scale=0.5, size=3)
        s = cl_sensitivity(LogLinearIntensity(beta, field))
        assert np.allclose(s, s.T)
        assert np.linalg.eigvalsh(s).min() >= -1e-10


def test_fit_unit_covariate_closed_form():
    pat = _uniform_pattern(W1, 215, 5)
    field = CovariateField.constant(W1, [1.0])
    res = fit_loglinear(pat, field)
    assert res.converged
    assert abs(res.beta_hat[0] - np.log(215.0)) < 1e-10
    # agrees with the constant-model estimator
    assert abs(res.beta_hat[0] - np.log(estimate_constant(pat))) < 1e-10


def test_fit_refit_from_solution_is_immediate():
    pat = _uniform_pattern(W1, 190, 6)
    field = linear_field(W1, 32)
    first = fit_loglinear(pat, field)
    again = fit_loglinear(pat, field, beta0=first.beta_hat)
    assert again.iterations <= 1
    np.testing.assert_allclose(again.beta_hat, first.beta_hat, rtol=0, atol=1e-9)


def test_fit_score_norm_within_tolerance():
    pat = _uniform_pattern(W1, 240, 7)
    field = linear_field(W1, 32)
    res = fit_loglinear(pat, field)
    assert res.converged
    assert res.score_norm <= 1e-8 * W1.volume
    model = LogLinearIntensity(res.beta_hat, field)
    assert np.abs(cl_score(pat, model)).max() <= 1e-8 * W1.volume


def test_fit_collinear_covariates():
    # duplicated covariate: singular sensitivity once a Newton step is attempted
    field = CovariateField.constant(W1, [1.0, 1.0])
    with pytest.raises(ValueError, match="collinear"):
        fit_loglinear(_uniform_pattern(W1, 50, 9), field, beta0=[1.0, -1.0])


def test_fit_empty_pattern():
    field = CovariateField.constant(W1, [1.0])
    with pytest.raises(ValueError):
        fit_loglinear(PointPattern(W1, np.empty((0, 2))), field)


def test_constant_intensity_model_interface():
    model = ConstantIntensity(200.0)
    pts = np.zeros((4, 2))
    np.testing.assert_allclose(model.value(pts), 200.0)
    np.testing.assert_allclose(model.log_gradient(pts), 1.0 / 200.0)
    with pytest.raises(ValueError):
        ConstantIntensity(0.0)


def test_covariate_field_lookup():
    field = linear_field(W1, 4)
    # cell centers along x: -0.375, -0.125, 0.125, 0.375
    z = field.at([[-0.4, 0.0], [0.4, 0.0]])
    np.testing.assert_allclose(z, [[1.0, -0.375], [1.0, 0.375]])


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("side", [1.0, 0.7, 2.0 / 3.0])
@pytest.mark.parametrize("resolution", [1, 3, 7])
def test_covariate_field_at_window_faces_returns_edge_cells(dim, side, resolution):
    # The face and one ulp inside it, on each axis, read the first or last cell.
    window = Window(dim, side)
    values = np.arange(resolution**dim, dtype=float).reshape((resolution,) * dim + (1,))
    field = CovariateField(window, values)
    half = side / 2.0
    for axis in range(dim):
        for face, cell in ((-half, 0), (half, resolution - 1)):
            for coord in (face, np.nextafter(face, 0.0)):
                point = np.zeros(dim)
                point[axis] = coord
                index = [resolution // 2] * dim
                index[axis] = cell
                assert field.at(point[None, :])[0, 0] == values[tuple(index)][0]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_cl_score_empty_pattern_is_minus_integral(dim):
    window = Window(dim, 1.5)
    field = CovariateField(window, np.random.default_rng(dim).normal(size=(3,) * dim + (2,)))
    model = LogLinearIntensity([1.0, -0.5], field)
    integral = field.cell_volume * (field.flat().T @ model.cell_values())
    empty = PointPattern(window, np.empty((0, dim)))
    np.testing.assert_array_equal(cl_score(empty, model), -integral, strict=True)


PLANE2 = Window(2, 2.0)


@pytest.mark.parametrize(
    "window", [Window(2, 3.0), Window(3, 2.0), Window(1, 2.0)], ids=["side-3", "3-D", "1-D"]
)
@pytest.mark.parametrize(
    "call", ["k_hat", "h_matrix", "taylor_residual", "simulate_poisson_inhom", "cl_score",
             "fit_loglinear"]
)
def test_loglinear_model_lives_on_its_raster_window(call, window):
    # A planar side-2 raster defines the model on that window only: a pattern or
    # a simulation anywhere else is one ValueError, never a silent evaluation
    # (3-D) or an IndexError (1-D).
    field = linear_field(PLANE2, 4)
    model = LogLinearIntensity([np.log(50.0), 0.5], field)
    grid = RadiusGrid.uniform(0.2, 5)
    calls = {
        "k_hat": lambda pat: k_hat(pat, model, grid),
        "h_matrix": lambda pat: h_matrix(pat, model, grid),
        "taylor_residual": lambda pat: taylor_residual(
            pat, lambda b: LogLinearIntensity(b, field), model.beta, model.beta, grid
        ),
        "simulate_poisson_inhom": lambda pat: simulate_poisson_inhom(
            model, model.cell_values().max(), pat.window, 1
        ),
        "cl_score": lambda pat: cl_score(pat, model),
        "fit_loglinear": lambda pat: fit_loglinear(pat, field),
    }
    calls[call](_uniform_pattern(PLANE2, 40, 2))
    message = f"covariate raster window {PLANE2} does not match {window}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        calls[call](_uniform_pattern(window, 40, 2))


def test_fit_counts_step_halvings():
    # inhom-analysis's field and pattern: from beta0 = 0 the first Newton steps
    # overshoot and are halved 8 times in all; the default start needs none,
    # and both land on the same estimate.
    window = Window(2, 2.0)
    field = CovariateField.from_function(
        window, lambda p: np.column_stack([np.ones(len(p)), p[:, 0], np.sin(3.0 * p[:, 1])]), 32
    )
    truth = LogLinearIntensity([np.log(200.0), 0.5, 0.3], field)
    pat = simulate_poisson_inhom(truth, truth.cell_values().max(), window, 7)
    default = fit_loglinear(pat, field)
    cold = fit_loglinear(pat, field, beta0=[0.0, 0.0, 0.0])
    assert (default.iterations, default.halvings, default.converged) == (4, 0, True)
    assert (cold.iterations, cold.halvings, cold.converged) == (6, 8, True)
    assert np.abs(cold.beta_hat - default.beta_hat).max() < 1e-11
    # positional construction keeps working: halvings comes last, default 0
    assert FitResult(default.beta_hat, 0.0, 1, True).halvings == 0
