"""Asymptotic covariance machinery for K-function estimators.

Blocks of the limiting covariance of the joint vector (intensity parameter
estimate, K estimates on a radius grid):

* closed forms for the Poisson process in any dimension, for both known and
  estimated intensity, written once in :func:`poisson_cov_matrix`;
* general constant-intensity blocks as truncated integrals of the normalized
  joint intensities, evaluated by deterministic low-discrepancy quadrature;
* the composed limit covariance combining intensity-estimation and
  K-estimation fluctuations, with one H rule ``-2 K(r) zbar`` for both
  models (``zbar`` the average log-intensity gradient: ``1/beta``, or the
  covariate mean);
* log-linear-model blocks as finite-window spatial averages times decay
  integrals.

Quadrature layout: one routine, ``_ball_integrals``, evaluates every block
integral. Bounded integration variables are stratified over the grid annuli
(one low-discrepancy block per annulus or annulus pair, volume-uniform
radius), so cumulative sums over annuli give all grid radii at once and
models with constant normalized intensities are integrated exactly.
Unbounded variables are truncated to a ball of radius ``r_trunc``; the
fast-decay assumption on the joint intensities is what makes the truncation
harmless. Each variable is drawn for all strata of an integral in one call
and the integrand is evaluated once on the stacked points. Each block is
reported together with the difference between the full-sample and half-sample
estimates, a practical quadrature error gauge. The integrals that involve no
intensity (``K``, the third-order decay and the two pair terms of the K
covariance) are computed in one place for both intensity models, so the two
models integrate them on the same points, and one routine combines them with
each model's window averages. Stratum-id regions are sized from the grid, so
any grid size fits.

Raster lag averages of the log-linear blocks are exact: on rasters constant
on cells, ``int q_u(u) q_s(u - v)' du`` is the cell volume times the
multilinear interpolation of the discrete cross-correlation at integer cell
lags. They are built only when the density factor they multiply (``g - 1``
or ``g``) is nonzero at some lag, so a factor that vanishes everywhere, as
``g - 1`` does for Poisson densities, costs no table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .geometry import check_integer, check_positive, overlap_volume
from .intensity import CovariateField, LogLinearIntensity, cl_sensitivity
from .kstat import RadiusGrid, k_poisson
from .limitlaw import check_covariance
from .qmc import HALTON_DIMS, ball_points_weighted, ball_shell_points, direction_dims

__all__ = [
    "ProductDensityModel",
    "POISSON_DENSITIES",
    "QuadratureConfig",
    "CovarianceBlocks",
    "LimitCovariance",
    "poisson_cov_matrix",
    "poisson_blocks",
    "sigma_blocks_constant",
    "cov_estimated_constant",
    "compose_lim_cov",
    "loglinear_sigma_blocks",
    "h_limit_constant",
    "h_limit_loglinear",
    "MAX_QUADRATURE_DIM",
    "MODES",
]

# Variance modes of every test: estimated-intensity, or known-intensity at the estimate.
MODES = ("estimated", "known")

# Disjoint stratum-id regions per integral, so no two integrals share
# low-discrepancy points.
_REGION_K = 0
_REGION_S11 = 1
_REGION_S2 = 2
_REGION_C3 = 3
_REGION_C4 = 4
_REGION_LL_S11 = 5
_REGION_LL_C2 = 6

# The pair integrals draw three ball variables, each on its own Halton
# coordinates, so the prime table bounds the dimension.
MAX_QUADRATURE_DIM = max(
    d for d in range(1, HALTON_DIMS) if 3 * (1 + direction_dims(d)) <= HALTON_DIMS
)

# Reported quadrature errors are the accumulated absolute full-vs-half-sample
# differences times this factor; the margin is what makes "doubling the budget
# moves every entry by less than the reported error" hold in practice.
_ERROR_SAFETY = 3.0

# Floats of raster windows that _lag_averages copies per matrix product.
_LAG_BLOCK = 2**15


@dataclass(frozen=True)
class ProductDensityModel:
    """Translation-invariant normalized joint intensities of orders 2..4.

    ``g(h)`` is the pair correlation at displacement ``h``; ``g3(x, y)`` and
    ``g4(x, y, z)`` are the third and fourth order functions anchored at the
    origin. All callables are vectorized over the leading axis and must be
    nonnegative and bounded. The Poisson instance has all three identically 1.
    """

    g: Callable[[np.ndarray], np.ndarray]
    g3: Callable[[np.ndarray, np.ndarray], np.ndarray]
    g4: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


def _ones(*arrays) -> np.ndarray:
    return np.ones(len(arrays[0]))


POISSON_DENSITIES = ProductDensityModel(g=_ones, g3=_ones, g4=_ones)


@dataclass(frozen=True)
class QuadratureConfig:
    """Sample budget per block integral and truncation radius.

    The budget is split evenly across strata (grid annuli or annulus pairs),
    with a floor of 32 points per stratum, so a budget below 32 per stratum
    is exceeded: ``CovarianceBlocks.points`` reports the points drawn.
    ``r_trunc`` defaults to five grid radii; integrands whose decay length is
    comparable to or larger than the grid need an explicit, larger value.
    """

    samples: int = 2**16
    r_trunc: float | None = None

    def __post_init__(self):
        check_integer(self.samples, "samples")
        if self.samples < 64:
            raise ValueError("sample budget too small")
        if self.r_trunc is not None:
            check_positive(self.r_trunc, "r_trunc")

    def resolve_trunc(self, grid: RadiusGrid) -> float:
        return self.r_trunc if self.r_trunc is not None else 5.0 * grid.rmax

    def per_stratum(self, n_strata: int) -> int:
        n = max(32, self.samples // n_strata)
        return n + (n % 2)


@dataclass(frozen=True)
class LimitCovariance:
    """Limit covariance of the (scaled) K estimator on a grid."""

    grid: RadiusGrid
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float)
        m = self.grid.m
        if mat.shape != (m, m):
            raise ValueError(f"matrix must be {m}x{m}")
        check_covariance(mat)
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)


@dataclass(frozen=True)
class CovarianceBlocks:
    """Limiting covariance blocks on a radius grid.

    For the constant model the blocks are in estimator coordinates:
    ``sigma11`` is ``lim n Var(beta_hat)``, row ``r`` of ``sigma2`` is
    ``lim n Cov(beta_hat, Khat(r))`` and ``c`` is the known-intensity K
    covariance. For the log-linear model the blocks are in score coordinates
    (the variance of the normalized composite likelihood score) and carry the
    ``sensitivity`` matrix; :meth:`beta_coords` converts. ``sigma11`` is
    ``(p, p)`` and ``sigma2`` is ``(m, p)``, both 2-D as given. The
    ``p``-vector ``zbar`` is the window average of the log-intensity
    gradient: ``[1/beta]`` for the constant model and the covariate mean for
    the log-linear one, so one rule, :func:`h_limit_loglinear`, gives both
    models' H rows. ``k_curve`` is the model K-function on the grid, computed
    by the same quadrature, and ``points`` the number of quadrature points
    drawn for all the blocks (0 for closed forms). The arrays are read-only.
    """

    grid: RadiusGrid
    sigma11: np.ndarray
    sigma2: np.ndarray
    c: np.ndarray
    k_curve: np.ndarray
    zbar: np.ndarray
    sigma11_err: np.ndarray | None = None
    sigma2_err: np.ndarray | None = None
    c_err: np.ndarray | None = None
    sensitivity: np.ndarray | None = None
    points: int = 0

    def __post_init__(self):
        m = self.grid.m
        names = ("sigma11", "sigma2", "c", "k_curve", "zbar")
        arrays = [np.asarray(getattr(self, n), dtype=float) for n in names]
        p = arrays[0].shape[0] if arrays[0].ndim else 0
        if [a.shape for a in arrays] != [(p, p), (m, p), (m, m), (m,), (p,)]:
            raise ValueError("inconsistent block shapes")
        for name, arr in zip(names, arrays):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def p(self) -> int:
        return self.sigma11.shape[0]

    def beta_coords(self) -> "CovarianceBlocks":
        """Blocks for the parameter estimate itself.

        Applies the inverse sensitivity sandwich that maps score fluctuations
        to parameter fluctuations; a no-op when the blocks are already in
        estimator coordinates. A near-singular sensitivity (condition number
        above 1e12) means the limit may not be identified, and is an error.
        """
        if self.sensitivity is None:
            return self
        cond = np.linalg.cond(self.sensitivity)
        if cond > 1e12:
            raise ValueError(
                f"sensitivity matrix is nearly singular (condition number {cond:.3g}); "
                "parameter-coordinate blocks are unreliable"
            )
        sinv = np.linalg.inv(self.sensitivity)
        return replace(
            self,
            sigma11=sinv @ self.sigma11 @ sinv.T,
            sigma2=self.sigma2 @ sinv.T,
            sigma11_err=None,
            sigma2_err=None,
            sensitivity=None,
        )


def poisson_cov_matrix(
    grid: RadiusGrid, rho: float, mode: str, dim: int = 2
) -> LimitCovariance:
    """Closed-form limit covariance of the Poisson K estimator (any dimension).

    ``mode='estimated'``: ``2 K(min(s,t)) / rho^2``; ``mode='known'`` adds
    ``4 K(s) K(t) / rho``, with ``K`` the ``dim``-ball volume.
    """
    check_positive(rho, "rho")
    if mode not in MODES:
        raise ValueError("mode must be 'estimated' or 'known'")
    k = k_poisson(grid.values, dim)
    # rho^2 as a numpy float: an extreme rho overflows or underflows quietly
    # and is refused below instead of raising OverflowError.
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        mat = 2.0 * np.minimum.outer(k, k) / np.float64(rho) ** 2
        if not (np.isfinite(mat).all() and mat.min() > 0):
            raise ValueError(
                f"Poisson covariance at intensity {rho!r} is not finite and positive"
            )
        if mode == "known":
            mat = mat + 4.0 * np.outer(k, k) / rho
    return LimitCovariance(grid, mat)


def poisson_blocks(beta: float, grid: RadiusGrid, dim: int = 2) -> CovarianceBlocks:
    """Exact covariance blocks for the Poisson model (any dimension).

    With all normalized joint intensities equal to one the block integrals
    collapse to ball volumes: ``sigma11 = beta``, ``sigma2(r) = 2 K(r)`` and
    ``c`` is the known-intensity :func:`poisson_cov_matrix`.
    """
    check_positive(beta, "beta")
    k = k_poisson(grid.values, dim)
    return CovarianceBlocks(
        grid=grid,
        sigma11=np.array([[beta]]),
        sigma2=(2.0 * k)[:, None],
        c=poisson_cov_matrix(grid, beta, "known", dim).matrix,
        k_curve=k,
        zbar=np.array([1.0 / beta]),
    )


# ---------------------------------------------------------------------------
# Quadrature internals
# ---------------------------------------------------------------------------


class _Integral(NamedTuple):
    value: np.ndarray
    err: np.ndarray
    points: int


def _flat_index(annuli: np.ndarray, m: int) -> np.ndarray:
    # Row-major index of each stratum's annuli in an (m,) * k array.
    flat = np.zeros(annuli.shape[1], dtype=np.int64)
    for a in annuli:
        flat = flat * m + a
    return flat


def _cumulate(parts: np.ndarray, annuli: np.ndarray, m: int) -> np.ndarray:
    # Each stratum's part at its annuli and their mirror image, cumulated
    # along every bounded axis.
    out = np.zeros((m,) * len(annuli) + parts.shape[1:])
    flat = out.reshape((-1,) + parts.shape[1:])
    flat[_flat_index(annuli, m)] = flat[_flat_index(annuli[::-1], m)] = parts
    for axis in range(len(annuli)):
        out = out.cumsum(axis=axis)
    return out


def _ball_integrals(grid, dim, quad, region, k, integrand, truncated=False) -> _Integral:
    """Integrals of ``integrand`` over ``k`` bounded variables in grid balls.

    Strata: one for ``k = 0``, one per annulus for ``k = 1`` and one per
    annulus pair ``l <= l'`` for ``k = 2``. Bounded variables are
    volume-uniform on their annulus; with ``truncated`` a last variable is
    uniform in radius on the ``r_trunc`` ball, with volume weights. Each
    variable is drawn for all strata in one call and ``integrand(*points)``
    is called once, returning per-point values of any trailing shape. The
    per-stratum means times the shell volumes are mirrored over the pair
    order and cumulated along each bounded axis, so entry ``(l, l')`` is the
    integral over ball ``l`` times ball ``l'``; the error is the same cumulation
    of the absolute full-vs-half-sample differences, without the safety factor.
    """
    if not 1 <= dim <= MAX_QUADRATURE_DIM:
        raise ValueError(
            f"covariance quadrature takes dimensions 1 to {MAX_QUADRATURE_DIM}, got {dim}"
        )
    m = grid.m
    if k == 2:
        annuli = np.array(np.triu_indices(m))
    else:
        annuli = np.arange(m)[None, :] if k else np.zeros((0, 1), dtype=int)
    # A region holds the m*m annulus pairs; the 4096 floor keeps the ids (and
    # so the points) of every grid with m <= 64 fixed.
    strata = region * max(4096, m * m) + _flat_index(annuli, m)
    n = quad.per_stratum(len(strata))
    edges = np.concatenate(([0.0], grid.values))
    vdims = 1 + direction_dims(dim)
    points = [
        ball_shell_points(n, dim, edges[a], edges[a + 1], strata, dim_offset=i * vdims)
        for i, a in enumerate(annuli)
    ]
    if truncated:
        r_trunc = quad.resolve_trunc(grid)
        z, weights = ball_points_weighted(n, dim, r_trunc, strata, dim_offset=k * vdims)
        points.append(z)
    values = np.asarray(integrand(*points), dtype=float)
    if truncated:
        values = values * weights.reshape((-1,) + (1,) * (values.ndim - 1))
    values = values.reshape((len(strata), n) + values.shape[1:])
    vol = np.prod(np.diff(k_poisson(edges, dim))[annuli], axis=0)
    vol = vol.reshape((-1,) + (1,) * (values.ndim - 2))
    full = vol * values.mean(axis=1)
    half = vol * values[:, : n // 2].mean(axis=1)
    return _Integral(
        _cumulate(full, annuli, m),
        _cumulate(np.abs(full - half), annuli, m),
        len(points) * len(strata) * n,
    )


def _model_integrals(model: ProductDensityModel, grid, quad, dim) -> list[_Integral]:
    """The block integrals that involve no intensity.

    In order: ``K(r) = int_{B_r} g``; the third-order decay
    ``int_{B_r} dx int dy (g3(x,y) - g(x))``; and the fourth- and third-order
    pair terms ``t1(r1, r2) = int_{B_r1} dx int_{B_r2} du int dz
    (g4(x, u+z, z) - g(x) g(u))`` and ``t2(r1, r2) = int_{B_r1} int_{B_r2} g3``
    of the K covariance.
    """
    return [
        _ball_integrals(grid, dim, quad, _REGION_K, 1, model.g),
        _ball_integrals(
            grid, dim, quad, _REGION_S2, 1,
            lambda x, y: model.g3(x, y) - model.g(x), truncated=True,
        ),
        _ball_integrals(
            grid, dim, quad, _REGION_C4, 2,
            lambda x, u, z: model.g4(x, u + z, z) - model.g(x) * model.g(u),
            truncated=True,
        ),
        _ball_integrals(grid, dim, quad, _REGION_C3, 2, model.g3),
    ]


def _assemble_blocks(
    grid, integrals, s11, c3, base, rho_grad, log_grad, inv_rho_bar, zbar, sensitivity=None
):
    """Blocks from :func:`_model_integrals` and one intensity model's averages.

    ``sigma11 = base + s11``, ``sigma2(r) = decay(r) rho_grad' + 2 K(r) log_grad'``
    (window averages of the intensity and log-intensity gradients) and
    ``c(r1, r2) = t1 + 4 inv_rho_bar t2 + 2 c3(min(r1, r2))`` with ``c3`` the
    ``g``-weighted ball integral of ``1/(rho rho)``; the error gauges are the
    same sums of absolute errors times ``_ERROR_SAFETY``.
    """
    (k_curve, k_err, _), (decay2, d_err, _), (t1, t1_err, _), (t2, t2_err, _) = integrals
    sigma11 = base + s11.value
    minix = np.minimum.outer(np.arange(grid.m), np.arange(grid.m))
    c = t1 + 4.0 * inv_rho_bar * t2 + 2.0 * c3.value[minix]
    sigma2_err = np.outer(d_err, np.abs(rho_grad)) + 2.0 * np.outer(k_err, np.abs(log_grad))
    return CovarianceBlocks(
        grid=grid,
        sigma11=0.5 * (sigma11 + sigma11.T),
        sigma2=np.outer(decay2, rho_grad) + 2.0 * np.outer(k_curve, log_grad),
        c=0.5 * (c + c.T),
        k_curve=k_curve,
        sigma11_err=_ERROR_SAFETY * s11.err,
        sigma2_err=_ERROR_SAFETY * sigma2_err,
        c_err=_ERROR_SAFETY * (t1_err + 4.0 * inv_rho_bar * t2_err + 2.0 * c3.err[minix]),
        sensitivity=sensitivity,
        zbar=zbar,
        points=sum(i.points for i in integrals) + s11.points + c3.points,
    )


def sigma_blocks_constant(
    model: ProductDensityModel,
    beta: float,
    grid: RadiusGrid,
    quad: QuadratureConfig | None = None,
    dim: int = 2,
) -> CovarianceBlocks:
    """Constant-intensity covariance blocks by low-discrepancy quadrature.

    Evaluates, over the truncated domains, the Campbell-formula limits: the
    estimator variance ``beta^2 int(g-1) + beta``, the cross covariance
    ``beta int int (g3-g) 1{|x|<=r} + 2K(r)`` and the three-term K covariance.
    ``K(r)`` itself is the integral of ``g`` over the r-ball with the same
    scheme. A ``beta`` whose square or inverse square leaves the float range
    raises ``ValueError``.
    """
    check_positive(beta, "beta")
    try:
        inv_rho2 = 1.0 / float(beta) ** 2
    except (OverflowError, ZeroDivisionError):
        inv_rho2 = math.inf
    if not inv_rho2 < math.inf:
        raise ValueError(f"beta**2 and 1/beta**2 must be finite and positive, got beta = {beta!r}")
    quad = quad or QuadratureConfig()
    integrals = _model_integrals(model, grid, quad, dim)
    gm1 = _ball_integrals(
        grid, dim, quad, _REGION_S11, 0, lambda v: model.g(v) - 1.0, truncated=True
    )
    s11 = _Integral(np.array([[beta**2 * gm1.value]]), np.array([[beta**2 * gm1.err]]), gm1.points)
    k = integrals[0]
    # Estimator coordinates: the score-coordinate gradient averages (1, 1/beta)
    # times the inverse sensitivity beta; with 1/(rho rho) = 1/beta^2, c3 is K/beta^2.
    return _assemble_blocks(
        grid, integrals, s11, _Integral(inv_rho2 * k.value, inv_rho2 * k.err, 0),
        np.array([[beta]]), [beta], [1.0], 1.0 / beta, np.array([1.0 / beta]),
    )


def cov_estimated_constant(blocks: CovarianceBlocks) -> LimitCovariance:
    """Estimated-intensity K covariance from constant-model blocks.

    The composed limit covariance with the blocks' own H rows
    ``-2 K(r) zbar = -2 K(r) / beta``, so the blocks fix ``beta``: expanding
    it recombines the block integrals into the estimated-intensity formula
    (the third-order decay integral is ``(sigma2(r) - 2K(r)) / beta`` and
    ``int(g-1)`` is ``(sigma11 - beta) / beta^2``), so no further quadrature
    is involved.
    """
    if blocks.sensitivity is not None:
        raise ValueError("expected constant-model blocks")
    if blocks.p != 1:
        raise ValueError("constant-model blocks must have p = 1")
    return compose_lim_cov(h_limit_loglinear(blocks), blocks)


def compose_lim_cov(h, blocks: CovarianceBlocks) -> LimitCovariance:
    """Limit covariance of the plug-in K estimator.

    ``c~(s,t) = H(s) Sigma11 H(t)' + H(s) Sigma2,t + H(t) Sigma2,s + c(s,t)``
    where ``h`` is the ``(m, p)`` array of rows ``H(r)``, one per grid
    radius. Score-coordinate blocks are converted to estimator coordinates
    first. The result is averaged with its transpose, so it is exactly
    symmetric.
    """
    blocks = blocks.beta_coords()
    hmat = np.asarray(h, dtype=float)
    if hmat.shape != (blocks.grid.m, blocks.p):
        raise ValueError(
            f"H must be ({blocks.grid.m}, {blocks.p}), got {hmat.shape}"
        )
    cross = hmat @ blocks.sigma2.T
    mat = hmat @ blocks.sigma11 @ hmat.T + cross + cross.T + blocks.c
    return LimitCovariance(blocks.grid, 0.5 * (mat + mat.T))


def h_limit_loglinear(blocks: CovarianceBlocks) -> np.ndarray:
    """Limit H rows ``-2 K(r) zbar`` for either intensity model.

    ``zbar`` is the blocks' average log-intensity gradient: ``1/beta`` for
    the constant model, the covariate mean for the log-linear one.
    """
    return -2.0 * np.outer(blocks.k_curve, blocks.zbar)


h_limit_constant = h_limit_loglinear


# ---------------------------------------------------------------------------
# Log-linear blocks (finite-window spatial averages x decay integrals)
# ---------------------------------------------------------------------------


def _lag_averages(q_u: np.ndarray, q_s: np.ndarray, field: CovariateField, lags) -> np.ndarray:
    """Average of ``q_u(u) q_s(u - v)'`` over ``W and (W + v)``, exactly, per lag.

    ``q_u`` and ``q_s`` are per-cell vectors ``(ncells, a)`` and
    ``(ncells, b)`` on the raster of ``field``, ``lags`` is ``(n, dim)``;
    returns ``(n, a, b)``, zero where the windows do not overlap. On
    cell-constant rasters the overlap integral is the cell volume times the
    multilinear interpolation, at the lag in cell units, of the discrete
    cross-correlation ``C[k] = sum_j q_u[j + k] q_s[j]'`` at integer cell
    lags ``k``; ``C`` is built only over the lags the samples reach. Zero
    padding gives every lag a full raster-sized window of ``q_u``, and each
    block of at most ``_LAG_BLOCK`` window floats takes one product with
    ``q_s``: exact zeros added, so ``C`` is exact up to summation order.
    """
    res = np.array(field.resolution)
    lags = np.asarray(lags, float)
    # Clipping is exact: C vanishes at lags of +-res cells and beyond.
    t = np.clip(lags * (res / field.window.side), -res, res)
    base = np.floor(t).astype(int)
    frac = t - base
    lo, hi = base.min(axis=0), base.max(axis=0) + 1
    box, a, b = tuple(hi - lo + 1), q_u.shape[-1], q_s.shape[-1]
    pad = [(max(-j, 0), max(k, 0)) for j, k in zip(lo, hi)]  # window k starts at cell k
    padded = np.pad(q_u.reshape(field.resolution + (a,)), pad + [(0, 0)])
    windows = sliding_window_view(padded, field.resolution, axis=tuple(range(len(res))))
    windows = windows[tuple(slice(j + p, j + p + n) for j, (p, _), n in zip(lo, pad, box))]
    table = np.empty((math.prod(box), a, b))
    step = max(1, _LAG_BLOCK // q_u.size)
    for start in range(0, len(table), step):
        pos = np.unravel_index(np.arange(start, min(start + step, len(table))), box)
        table[start : start + step] = (windows[pos].reshape(-1, len(q_s)) @ q_s).reshape(-1, a, b)
    rows = table.reshape(len(table), a * b).T
    cell = np.ravel_multi_index(tuple((base - lo).T), box)
    sides = np.stack([1.0 - frac.T, frac.T], axis=1)
    interp = 0.0
    for corner in np.ndindex(*(2,) * len(res)):
        weight = math.prod(side[c] for side, c in zip(sides, corner))
        interp = interp + weight * np.take(rows, cell + np.ravel_multi_index(corner, box), axis=1)
    overlap = overlap_volume(field.window, lags)
    out = np.divide(interp * field.cell_volume, overlap, out=np.zeros_like(interp), where=overlap > 0)
    return out.T.reshape(len(lags), a, b)


def _times_lag_averages(factor, q, field: CovariateField, lags) -> np.ndarray:
    """``factor[:, None, None] * _lag_averages(q, q, field, lags)``; no table if all factors are 0.

    A factor that is 0 at every lag gives exact zeros without building the
    lag averages; any nonzero entry, NaN included, gives the plain product.
    """
    factor = np.asarray(factor, dtype=float)[:, None, None]
    if not factor.any():
        return np.zeros((len(factor),) + (q.shape[-1],) * 2)
    return factor * _lag_averages(q, q, field, lags)


def loglinear_sigma_blocks(
    field: CovariateField,
    beta,
    model: ProductDensityModel,
    grid: RadiusGrid,
    quad: QuadratureConfig | None = None,
) -> CovarianceBlocks:
    """Log-linear-model covariance blocks in score coordinates.

    Ergodic limits are replaced by finite-window spatial averages over the
    raster: the sensitivity and the averages of ``z rho`` and ``1/rho`` are
    exact cell sums, and the lag averages of ``z z' rho rho`` (score
    variance) and ``1/(rho rho)`` (K block) at each quadrature lag ``v`` are
    exact too: the cell volume times the multilinear interpolation of the
    raster's discrete cross-correlation at integer cell lags, divided by
    ``|W and (W + v)|`` (zero where the windows do not overlap), built only
    when their density factor ``g - 1`` or ``g`` is nonzero at some lag. The
    decay integrals over the normalized joint intensities are the constant
    model's, on the same points. The returned blocks carry the sensitivity matrix; use
    :meth:`CovarianceBlocks.beta_coords` for estimator coordinates and
    :func:`h_limit_loglinear` for the matching H.
    """
    quad = quad or QuadratureConfig()
    dim = field.window.dim
    intensity = LogLinearIntensity(np.asarray(beta, float), field)

    z_cells = field.flat()
    rho_cells = intensity.cell_values()
    sens = cl_sensitivity(intensity)
    zbar = z_cells.mean(axis=0)
    q_zrho = z_cells * rho_cells[:, None]
    z_rho_bar = q_zrho.mean(axis=0)
    inv_rho_bar = float((1.0 / rho_cells).mean())
    q_invrho = (1.0 / rho_cells)[:, None]
    integrals = _model_integrals(model, grid, quad, dim)
    # Score variance: sensitivity plus the lag integral of (g-1) against the
    # spatial average of z z' rho rho.
    s11 = _ball_integrals(
        grid, dim, quad, _REGION_LL_S11, 0,
        lambda v: _times_lag_averages(model.g(v) - 1.0, q_zrho, field, v),
        truncated=True,
    )
    # K covariance pair term: the lag average of g(w)/(rho(u) rho(u-w)).
    c3 = _ball_integrals(
        grid, dim, quad, _REGION_LL_C2, 1,
        lambda x: _times_lag_averages(model.g(x), q_invrho, field, x)[:, 0, 0],
    )
    return _assemble_blocks(
        grid, integrals, s11, c3, sens, z_rho_bar, zbar, inv_rho_bar, zbar, sens
    )
