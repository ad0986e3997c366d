"""Monte Carlo law of the sup-norm of the limiting Gaussian process.

:func:`gaussian_paths` is the one sampler of ``Z ~ N(0, cov)`` on the grid,
via a Cholesky factor; :func:`simulate_sup` turns its paths into draws of
``max_j |Z(r_j)|``, and the null tables of :mod:`inhomk.gof` take their
signed paths from it too. Draws are plain sorted arrays. One standard-normal
reservoir per seed is reused against different covariances, so critical
values are directly comparable across covariances and exact scaling relations
of the covariance carry over to the draws.

This module owns the two rules that turn draws into a decision: the
order-statistic critical value (:func:`upper_quantile`) and the Monte Carlo
p-value (:func:`p_value`, of sorted draws). The goodness-of-fit test, the
study harness and the ``crit`` command all go through them.
"""

from __future__ import annotations

from math import ceil

import numpy as np

from .geometry import check_integer
from .seeds import stream

__all__ = ["check_sample_size", "normal_reservoir", "check_covariance", "cholesky_with_jitter",
           "gaussian_paths", "simulate_sup", "upper_quantile", "critical_value", "p_value"]

MIN_SAMPLE = 100
_JITTER_START = 1e-10
_JITTER_MAX = 1e-6


def check_sample_size(value: int, name: str) -> None:
    """The integer rule and the floor of every Monte Carlo sup law: ``"{name} must be >= 100"``."""
    check_integer(value, name)
    if value < MIN_SAMPLE:
        raise ValueError(f"{name} must be >= {MIN_SAMPLE}")


def normal_reservoir(seed: int, count: int, width: int) -> np.ndarray:
    """The ``(count, width)`` standard-normal block attached to a seed."""
    return stream(seed, "supnorm").standard_normal((count, width))


def check_covariance(cov: np.ndarray) -> None:
    """Raise ``ValueError`` unless ``cov`` is finite and symmetric.

    Symmetric means within ``rtol=1e-8`` and ``atol=1e-12 * max(1, max|C|)``
    of its transpose.
    """
    if not np.isfinite(cov).all():
        raise ValueError("covariance must be finite")
    if not np.allclose(cov, cov.T, rtol=1e-8, atol=1e-12 * max(1.0, np.abs(cov).max())):
        raise ValueError("covariance must be symmetric")


def cholesky_with_jitter(cov: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor, adding escalating relative jitter if needed.

    Jitter is ``eps * max(diag)`` with eps stepping 1e-10 -> 1e-6 by factors
    of ten; failure at 1e-6 means the matrix is not numerically PSD.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError("covariance must be square")
    check_covariance(cov)
    scale = max(float(np.abs(np.diag(cov)).max()), 0.0)
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        pass
    eps = _JITTER_START
    eye = np.eye(len(cov))
    while eps <= _JITTER_MAX:
        try:
            return np.linalg.cholesky(cov + eps * scale * eye)
        except np.linalg.LinAlgError:
            eps *= 10.0
    raise ValueError("covariance not numerically PSD")


def gaussian_paths(cov, count: int, seed: int) -> np.ndarray:
    """``count`` paths of ``Z ~ N(0, cov)`` on the grid, as a ``(count, m)`` array.

    ``cov`` is a square matrix or anything exposing ``.matrix`` (a
    LimitCovariance). Deterministic in ``(cov, count, seed)``.
    """
    mat = np.asarray(getattr(cov, "matrix", cov), dtype=float)
    check_sample_size(count, "count")
    factor = cholesky_with_jitter(mat)
    return normal_reservoir(seed, count, len(mat)) @ factor.T


def simulate_sup(cov, count: int, seed: int) -> np.ndarray:
    """Sorted, read-only Monte Carlo draws of ``max_j |Z(r_j)|`` for ``Z ~ N(0, cov)``."""
    draws = np.abs(gaussian_paths(cov, count, seed)).max(axis=1)
    draws.sort()
    draws.flags.writeable = False
    return draws


def upper_quantile(draws: np.ndarray, alpha: float) -> float:
    """The ``k``-th smallest of ``M`` draws in any order, ``k = ceil(M (1 - alpha))``.

    ``alpha = 1`` (always reject) gives 0. The level is not validated here:
    callers check it against their own admissible range.
    """
    k = ceil((1.0 - alpha) * len(draws))
    return float(np.partition(draws, k - 1)[k - 1]) if k > 0 else 0.0


def critical_value(draws: np.ndarray, alpha: float) -> float:
    """Upper-alpha critical value of sup draws, ``alpha`` in (0, 1)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    return upper_quantile(draws, alpha)


def p_value(draws: np.ndarray, statistic: float) -> float:
    """Monte Carlo p-value ``(1 + #{draws >= statistic}) / (M + 1)`` of sorted draws."""
    exceed = len(draws) - np.searchsorted(draws, statistic, side="left")
    return float((1 + exceed) / (len(draws) + 1))
