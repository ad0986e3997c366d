"""Seeded point-process generators.

All generators are pure functions of ``(params, window, seed)``: the sequence
of draws from the underlying stream is fixed, so the same seed gives a
byte-identical pattern. ``seed`` may be an integer or an already-derived
:class:`numpy.random.Generator` (the study harness passes per-replicate
streams).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import PointPattern, Window, check_positive
from .intensity import check_window
from .seeds import stream

__all__ = [
    "MaternParams",
    "simulate_poisson",
    "simulate_poisson_inhom",
    "simulate_matern",
]


@dataclass(frozen=True)
class MaternParams:
    """Matern cluster process parameters.

    kappa: parent intensity (parents per unit volume), mu: mean offspring per
    parent, rdisp: radius of the uniform dispersal ball.
    """

    kappa: float
    mu: float
    rdisp: float

    def __post_init__(self):
        for name in ("kappa", "mu", "rdisp"):
            check_positive(getattr(self, name), name)


def _rng(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else stream(seed)


def _poisson_points(rho: float, window: Window, rng) -> np.ndarray:
    """The draw of :func:`simulate_poisson`: a Poisson count, then uniform rows."""
    n = rng.poisson(rho * window.volume)
    half = window.side / 2.0
    return rng.uniform(-half, half, size=(n, window.dim))


def simulate_poisson(rho: float, window: Window, seed) -> PointPattern:
    """Homogeneous Poisson pattern with intensity ``rho`` on ``window``."""
    check_positive(rho, "rho")
    return PointPattern(window, _poisson_points(rho, window, _rng(seed)))


def simulate_poisson_inhom(model, rho_max: float, window: Window, seed) -> PointPattern:
    """Inhomogeneous Poisson pattern by thinning :func:`simulate_poisson`'s draw at ``rho_max``.

    ``model`` is an intensity model from :mod:`inhomk.intensity`, a log-linear one
    on ``window``. Retention probability at ``u`` is ``model.value(u) / rho_max``
    (a log-linear model's supremum is ``cell_values().max()``); if the model
    exceeds the bound at any evaluated location this is an error.
    """
    check_positive(rho_max, "rho_max")
    check_window(model, window)
    rng = _rng(seed)
    pts = _poisson_points(rho_max, window, rng)
    vals = np.asarray(model.value(pts), dtype=float)
    if np.any(vals > rho_max):
        raise ValueError("dominating bound violated")
    keep = np.flatnonzero(rng.uniform(size=len(pts)) < vals / rho_max)
    return PointPattern(window, np.take(pts, keep, axis=0))


def _uniform_in_ball(rng: np.random.Generator, count: int, dim: int, radius: float):
    # Rejection from the bounding cube: exact and dimension-generic. The batch
    # policy is a fixed function of the deficit, so the draw sequence (and
    # hence the output) is deterministic for a given stream.
    out = np.empty((count, dim))
    got = 0
    while got < count:
        need = count - got
        batch = max(64, 2 * need)
        cand = rng.uniform(-radius, radius, size=(batch, dim))
        ok = np.flatnonzero(np.einsum("ij,ij->i", cand, cand) <= radius * radius)[:need]
        out[got : got + len(ok)] = np.take(cand, ok, axis=0)
        got += len(ok)
    return out


def simulate_matern(params: MaternParams, window: Window, seed) -> PointPattern:
    """Matern cluster pattern on ``window``.

    Parents are Poisson(kappa) on the window dilated by ``rdisp`` in every
    coordinate; any parent outside the dilated region contributes no offspring
    inside the window, so the restriction is exact. Each parent receives a
    Poisson(mu) number of offspring uniform in the ball of radius ``rdisp``
    around it; only offspring falling inside the window are returned.
    """
    rng = _rng(seed)
    d = window.dim
    dilated_side = window.side + 2.0 * params.rdisp
    n_parents = rng.poisson(params.kappa * dilated_side**d)
    parents = rng.uniform(-dilated_side / 2.0, dilated_side / 2.0, size=(n_parents, d))
    n_off = rng.poisson(params.mu, size=n_parents)
    total = int(n_off.sum())
    children = _uniform_in_ball(rng, total, d, params.rdisp)
    children += np.take(parents, np.repeat(np.arange(n_parents), n_off), axis=0)
    within = np.abs(children) <= window.side / 2.0
    inside = within[:, 0].copy()
    for col in within.T[1:]:
        inside &= col
    return PointPattern(window, np.take(children, np.flatnonzero(inside), axis=0))
