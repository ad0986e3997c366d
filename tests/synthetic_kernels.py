"""Test-only product densities with closed-form block integrals.

These kernels belong to no point process: they exist so that quadrature
blocks can be checked against separable closed forms. The library's one way
to supply product densities is :class:`inhomk.asymcov.ProductDensityModel`.
"""

from __future__ import annotations

import numpy as np

from inhomk.asymcov import ProductDensityModel


def synthetic_densities(
    g_scale: float | None = None,
    g3_scale: float | None = None,
    g4_scale: float | None = None,
) -> ProductDensityModel:
    """Test kernels with exponentially decaying excess correlation.

    Each non-None scale adds ``exp(-|free variable| / scale)`` to the
    corresponding order: ``g - 1``, ``g3 - g`` and ``g4 - g g`` then have
    separable closed-form integrals against the indicator supports.
    """

    def g(h):
        out = np.ones(len(h))
        if g_scale is not None:
            out = out + np.exp(-np.linalg.norm(h, axis=1) / g_scale)
        return out

    def g3(x, y):
        out = g(x)
        if g3_scale is not None:
            out = out + np.exp(-np.linalg.norm(y, axis=1) / g3_scale)
        return out

    def g4(x, y, z):
        out = g(x) * g(y - z)
        if g4_scale is not None:
            out = out + np.exp(-np.linalg.norm(z, axis=1) / g4_scale)
        return out

    return ProductDensityModel(g=g, g3=g3, g4=g4)
