"""Parametric intensity models and their estimators.

Two model families: a constant intensity ``rho(u) = beta`` with the standard
count/volume estimator, and a log-linear model ``rho(u) = exp(z(u)' beta)``
fitted by the first-order Poisson composite likelihood. Covariates are given
as a raster that is piecewise constant on cells, so the score and sensitivity
integrals are exact sums over cells and the estimating equation carries no
quadrature error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import PointPattern, Window, check_positive

__all__ = [
    "CovariateField",
    "ConstantIntensity",
    "LogLinearIntensity",
    "FitResult",
    "check_window",
    "estimate_constant",
    "cl_score",
    "cl_sensitivity",
    "fit_loglinear",
]

SCORE_TOL = 1e-8  # convergence: max-norm of score / |W|
MAX_ITER = 50
MAX_HALVINGS = 30


@dataclass(frozen=True)
class CovariateField:
    """Raster of p-dimensional covariate vectors, piecewise constant on cells.

    ``values`` has shape ``resolution^dim + (p,)`` in row-major cell order and
    covers the window exactly; evaluation returns the value of the cell
    containing the query point.
    """

    window: Window
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != self.window.dim + 1:
            raise ValueError(
                f"raster must have {self.window.dim} cell axes plus a covariate axis"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("raster entries must be finite")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def p(self) -> int:
        return self.values.shape[-1]

    @property
    def resolution(self) -> tuple[int, ...]:
        return self.values.shape[:-1]

    @property
    def cell_volume(self) -> float:
        return self.window.volume / float(np.prod(self.resolution))

    def at(self, points) -> np.ndarray:
        """Covariate vectors ``z(u)`` for an ``(n, dim)`` array of locations."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        half = self.window.side / 2.0
        ix = []
        for axis, res in enumerate(self.resolution):
            k = np.floor((pts[:, axis] + half) / (self.window.side / res)).astype(int)
            ix.append(np.clip(k, 0, res - 1))
        return self.values[tuple(ix)]

    def flat(self) -> np.ndarray:
        """Cells as an ``(ncells, p)`` array in row-major order."""
        return self.values.reshape(-1, self.p)

    @classmethod
    def constant(cls, window: Window, vector, resolution: int = 1) -> "CovariateField":
        vec = np.atleast_1d(np.asarray(vector, dtype=float))
        shape = (resolution,) * window.dim + (len(vec),)
        return cls(window, np.broadcast_to(vec, shape).copy())

    @classmethod
    def from_function(cls, window: Window, func, resolution: int) -> "CovariateField":
        """Rasterize ``func`` (mapping ``(n, dim)`` points to ``(n, p)``) at cell centers."""
        centers_1d = (np.arange(resolution) + 0.5) / resolution * window.side - window.side / 2.0
        mesh = np.meshgrid(*([centers_1d] * window.dim), indexing="ij")
        centers = np.stack([m.ravel() for m in mesh], axis=1)
        vals = np.atleast_2d(np.asarray(func(centers), dtype=float))
        if vals.shape[0] != len(centers):
            raise ValueError("covariate function must return one vector per point")
        return cls(window, vals.reshape((resolution,) * window.dim + (vals.shape[1],)))


@dataclass(frozen=True)
class ConstantIntensity:
    """Constant intensity model ``rho(u) = beta``."""

    beta: float

    def __post_init__(self):
        check_positive(self.beta, "beta")

    def value(self, points) -> np.ndarray:
        n = len(np.atleast_2d(points))
        return np.full(n, self.beta)

    def log_gradient(self, points) -> np.ndarray:
        # d/dbeta log(beta) = 1/beta
        n = len(np.atleast_2d(points))
        return np.full((n, 1), 1.0 / self.beta)


@dataclass(frozen=True)
class LogLinearIntensity:
    """Log-linear model ``rho(u) = exp(z(u)' beta)`` with raster covariates."""

    beta: np.ndarray
    covariates: CovariateField

    def __post_init__(self):
        b = np.atleast_1d(np.asarray(self.beta, dtype=float))
        if b.shape != (self.covariates.p,):
            raise ValueError(
                f"beta must have length {self.covariates.p}, got {b.shape}"
            )
        b.flags.writeable = False
        object.__setattr__(self, "beta", b)

    @property
    def window(self) -> Window:
        return self.covariates.window

    def value(self, points) -> np.ndarray:
        return np.exp(self.covariates.at(points) @ self.beta)

    def log_gradient(self, points) -> np.ndarray:
        # gradient of log rho is exactly the covariate vector
        return self.covariates.at(points)

    def cell_values(self) -> np.ndarray:
        """Intensity in every raster cell, row-major."""
        return np.exp(self.covariates.flat() @ self.beta)


@dataclass(frozen=True)
class FitResult:
    beta_hat: np.ndarray
    score_norm: float
    iterations: int
    converged: bool
    halvings: int = 0


def estimate_constant(pattern: PointPattern) -> float:
    """Standard constant-intensity estimator: point count over window volume."""
    if len(pattern) == 0:
        raise ValueError("zero estimated intensity: empty pattern")
    return len(pattern) / pattern.window.volume


def check_window(model, window: Window) -> None:
    """``ValueError`` unless a log-linear model's raster is on ``window``; constants fit any."""
    if isinstance(model, LogLinearIntensity) and model.window != window:
        raise ValueError(f"covariate raster window {model.window} does not match {window}")


def cl_score(pattern: PointPattern, model: LogLinearIntensity) -> np.ndarray:
    """Poisson composite likelihood score ``sum z(x) - int z exp(z'beta)``.

    The integral is an exact sum over raster cells (the integrand is constant
    per cell).
    """
    check_window(model, pattern.window)
    z_cells = model.covariates.flat()
    integral = model.covariates.cell_volume * (z_cells.T @ model.cell_values())
    return model.covariates.at(pattern.points).sum(axis=0) - integral


def cl_sensitivity(model: LogLinearIntensity) -> np.ndarray:
    """Normalized sensitivity ``|W|^-1 int z z' exp(z'beta)``; symmetric PSD."""
    field = model.covariates
    z = field.flat()
    w = model.cell_values() * field.cell_volume
    s = (z * w[:, None]).T @ z / field.window.volume
    return 0.5 * (s + s.T)


def fit_loglinear(
    pattern: PointPattern,
    covariates: CovariateField,
    beta0=None,
) -> FitResult:
    """Fit the log-linear model by Newton iteration on the composite score.

    Steps are ``(|W| S(beta))^-1 e(beta)`` with step halving whenever the
    score max-norm increases (``halvings`` counts them); converged when ``max|e| / |W| <= 1e-8``.
    """
    if len(pattern) == 0:
        raise ValueError("cannot fit intensity to an empty pattern")
    vol = pattern.window.volume
    if beta0 is None:
        beta = np.zeros(covariates.p)
        beta[0] = np.log(len(pattern) / vol)
    else:
        beta = np.atleast_1d(np.asarray(beta0, dtype=float)).copy()

    score = cl_score(pattern, LogLinearIntensity(beta, covariates))
    norm = np.abs(score).max()
    iterations = halvings = 0
    while norm / vol > SCORE_TOL and iterations < MAX_ITER:
        sens = cl_sensitivity(LogLinearIntensity(beta, covariates))
        try:
            step = np.linalg.solve(vol * sens, score)
        except np.linalg.LinAlgError as err:
            raise ValueError("collinear covariates: singular sensitivity") from err
        for _ in range(MAX_HALVINGS):
            cand = beta + step
            cand_score = cl_score(pattern, LogLinearIntensity(cand, covariates))
            cand_norm = np.abs(cand_score).max()
            if np.isfinite(cand_norm) and cand_norm <= norm:
                break
            step = step / 2.0
            halvings += 1
        beta, score, norm = cand, cand_score, cand_norm
        iterations += 1

    return FitResult(
        beta_hat=beta,
        score_norm=float(norm),
        iterations=iterations,
        converged=bool(norm / vol <= SCORE_TOL),
        halvings=halvings,
    )
