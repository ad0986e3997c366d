"""Test-only remainder of the plug-in expansion of the K estimator.

The expansion ``Khat(beta_hat) = Khat(beta_star) + H(beta_star) dbeta + ...``
is what the limit law linearizes; the tests check that its remainder vanishes
at equal parameters and is second order otherwise. No library code needs it.
"""

from __future__ import annotations

import numpy as np

from inhomk.geometry import PointPattern
from inhomk.kstat import Curve, RadiusGrid, h_matrix, k_hat


def taylor_residual(
    pattern: PointPattern,
    model_at,
    beta_star,
    beta_hat,
    grid: RadiusGrid,
) -> Curve:
    """First-order remainder of the plug-in expansion around ``beta_star``.

    ``model_at(beta)`` must build the intensity model of the family at a given
    parameter. Returns ``Khat(beta_hat) - Khat(beta_star) - H(beta_star) dbeta``
    per grid point; identically zero when the parameters coincide (each call
    scans the same pattern, so all three see the same pairs) and second order
    in their difference otherwise.
    """
    k_star = k_hat(pattern, model_at(beta_star), grid)
    k_plug = k_hat(pattern, model_at(beta_hat), grid)
    h_star = h_matrix(pattern, model_at(beta_star), grid)
    dbeta = np.atleast_1d(np.asarray(beta_hat, dtype=float)) - np.atleast_1d(
        np.asarray(beta_star, dtype=float)
    )
    return Curve(grid, k_plug.values - k_star.values - h_star.values @ dbeta)
