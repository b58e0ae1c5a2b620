"""Reference boundary-value problems for the conformal solver.

Gauge-consistent exact surfaces are built from pairs of holomorphic maps
f, g of z = sigma + i s: the patch (Re f, Im f, Re g, Im g) satisfies
<xi', xi_dot> = 0 and xi'^2 = xi_dot^2 identically.  The harmonic case
runs the uniform-potential (Laplace) limit; the manufactured case drives
a linearly varying potential with the analytically derived forcing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .conformal import ConformalPatch
from .geometry import Vec3
from .potentials import LinearField, PotentialField, UniformField


@dataclass
class ConformalCase:
    boundary: ConformalPatch
    exact: ConformalPatch
    field: PotentialField
    forcing: Optional[np.ndarray]


def _grid(n_sigma: int, n_s: int):
    return np.linspace(0.0, 1.0, n_sigma), np.linspace(0.0, 1.0, n_s)


def _patch_from(sigma, s, fn) -> ConformalPatch:
    sg, ss = np.meshgrid(sigma, s, indexing="ij")
    xi = np.stack(fn(sg, ss), axis=-1)
    return ConformalPatch(sigma, s, xi)


def harmonic_case(n_sigma: int, n_s: int) -> ConformalCase:
    """Laplace limit: wbar = -1, harmonic holomorphic-pair surface (z^2, 0.3 z).

    The discrete operator is exact on the polynomial pair, so the solve
    reproduces the surface and its gauge to solver tolerance.
    """
    sigma, s = _grid(n_sigma, n_s)

    def fn(sg, ss):
        return (sg**2 - ss**2, 2.0 * sg * ss, 0.3 * sg, 0.3 * ss)

    exact = _patch_from(sigma, s, fn)
    return ConformalCase(
        boundary=exact.copy_with(exact.xi),
        exact=exact,
        field=UniformField(-1.0),
        forcing=None,
    )


def manufactured_case(n_sigma: int, n_s: int) -> ConformalCase:
    """Linearly varying potential with the exact forcing of a cubic pair surface.

    Surface (z^2, 0.2 z^3); potential wbar = -2 + 0.3 x so that the
    potential varies along sigma through the first surface coordinate.
    Both sides of the equation are evaluated analytically to build the
    interior forcing.
    """
    sigma, s = _grid(n_sigma, n_s)

    def fn(sg, ss):
        return (
            sg**2 - ss**2,
            2.0 * sg * ss,
            0.2 * (sg**3 - 3.0 * sg * ss**2),
            0.2 * (3.0 * sg**2 * ss - ss**3),
        )

    exact = _patch_from(sigma, s, fn)
    field = LinearField(-2.0, Vec3(0.3, 0.0, 0.0))

    sg, ss = np.meshgrid(sigma[1:-1], s[1:-1], indexing="ij")
    xi_sigma = np.stack(
        (2.0 * sg, 2.0 * ss, 0.6 * (sg**2 - ss**2), 1.2 * sg * ss), axis=-1
    )
    xi_s = np.stack(
        (-2.0 * ss, 2.0 * sg, -1.2 * sg * ss, 0.6 * (sg**2 - ss**2)), axis=-1
    )
    w_sigma = 0.3 * (2.0 * sg)
    w_s = 0.3 * (-2.0 * ss)
    measure = np.sqrt(
        np.einsum("ijk,ijk->ij", xi_sigma, xi_sigma)
        * np.einsum("ijk,ijk->ij", xi_s, xi_s)
    )
    grad4 = np.zeros(sg.shape + (4,))
    grad4[..., 0] = 0.3
    # the surface components are harmonic, so the second-derivative block vanishes
    forcing = (
        w_s[..., None] * xi_s + w_sigma[..., None] * xi_sigma - measure[..., None] * grad4
    )
    return ConformalCase(
        boundary=exact.copy_with(exact.xi),
        exact=exact,
        field=field,
        forcing=forcing,
    )
